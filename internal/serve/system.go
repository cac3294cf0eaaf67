// System wires a full serving cluster together on localhost: one
// hdfs metadata plane (Config.Shards metadata shards, one by default)
// as the storage substrate, one datanode daemon per machine, and one
// namenode fronting the metadata — each on its own TCP port. It is also the failure injector: KillDataNode marks the
// machine dead at the namenode AND tears down its daemon with every
// open connection, so clients experience the same thing a real machine
// loss produces — connections cut mid-frame, then metadata that no
// longer lists the machine.
package serve

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/ec"
	"repro/internal/hdfs"
	"repro/internal/repairmgr"
	"repro/internal/telemetry"
)

// Option configures a System at Start.
type Option func(*sysOptions)

type sysOptions struct {
	mgrCfg  *repairmgr.Config
	teleCfg *TelemetryConfig
}

// WithRepairManager runs the autonomous repair control plane inside
// the namenode: every datanode daemon sends dn.heartbeat frames, the
// manager's failure detector tracks alive → suspect → dead, and
// detected losses repair themselves through the risk-prioritised,
// bandwidth-throttled queue — no manual fixer calls. The manager's
// clock must be real time (leave cfg.Clock nil) for a live system.
//
//repolint:ignore deadexport ROADMAP 7: the managed_recovery workload runs the manager in the live System
func WithRepairManager(cfg repairmgr.Config) Option {
	return func(o *sysOptions) { o.mgrCfg = &cfg }
}

// WithTelemetry instruments the whole system on one shared metrics
// registry — every daemon's RPC path, the storage substrate's lock and
// meta-op stats, the repair engine, and (when the control plane runs)
// the repair manager — and gives each daemon a bounded span store so
// sampled requests leave a collectable trace. cfg.HTTP additionally
// starts a loopback /metrics + /debug/traces listener per daemon.
func WithTelemetry(cfg TelemetryConfig) Option {
	return func(o *sysOptions) { o.teleCfg = &cfg }
}

// System is a running serving cluster.
type System struct {
	cluster hdfs.Metadata
	code    ec.Code
	nn      *NameNode
	mgr     *repairmgr.Manager // nil when the control plane is disabled
	hbEvery time.Duration

	reg     *telemetry.Registry // nil when telemetry is disabled
	teleCfg TelemetryConfig

	mu  sync.Mutex
	dns []*DataNode // nil entry = machine's daemon currently down
}

// nodeTele builds one daemon's telemetry handle (nil when the system
// runs without WithTelemetry).
func (s *System) nodeTele(role, proc string) (*nodeTelemetry, error) {
	if s.reg == nil {
		return nil, nil
	}
	return newNodeTelemetry(s.reg, s.teleCfg, role, proc)
}

// Start builds the storage cluster from cfg and brings up one datanode
// daemon per machine plus the namenode. Close must be called to
// release the listeners.
func Start(cfg hdfs.Config, opts ...Option) (*System, error) {
	var o sysOptions
	for _, opt := range opts {
		opt(&o)
	}
	s := &System{code: cfg.Code}
	if o.teleCfg != nil {
		s.reg = telemetry.NewRegistry()
		s.teleCfg = *o.teleCfg
		// The substrate and the control plane pick their instruments off
		// the same registry, so one scrape shows every tier.
		cfg.Telemetry = s.reg
	}
	cluster, err := hdfs.New(cfg)
	if err != nil {
		return nil, err
	}
	s.cluster = cluster
	if o.mgrCfg != nil {
		mgrCfg := *o.mgrCfg
		if s.reg != nil {
			mgrCfg.Telemetry = s.reg
		}
		mgr, err := repairmgr.New(cluster, mgrCfg)
		if err != nil {
			return nil, err
		}
		s.mgr = mgr
		// Three beats per suspect window keeps one lost frame from
		// mattering.
		suspectAfter := o.mgrCfg.SuspectAfter
		if suspectAfter <= 0 {
			suspectAfter = repairmgr.DefaultConfig().SuspectAfter
		}
		s.hbEvery = suspectAfter / 3
		if s.hbEvery < 5*time.Millisecond {
			s.hbEvery = 5 * time.Millisecond
		}
	}
	s.dns = make([]*DataNode, cluster.Machines())
	for m := range s.dns {
		tele, err := s.nodeTele("datanode", "datanode-"+strconv.Itoa(m))
		if err != nil {
			s.Close()
			return nil, err
		}
		dn, err := startDataNode(cluster, m, tele)
		if err != nil {
			tele.close()
			s.Close()
			return nil, err
		}
		s.dns[m] = dn
	}
	nnTele, err := s.nodeTele("namenode", "namenode")
	if err != nil {
		s.Close()
		return nil, err
	}
	nn, err := startNameNode(cluster, cfg.Code, cfg.BlockSize, s, s.mgr, nnTele)
	if err != nil {
		nnTele.close()
		s.Close()
		return nil, err
	}
	s.nn = nn
	if s.mgr != nil {
		// Heartbeats need the namenode's address, so they start last;
		// the detector registered every node alive at construction, so
		// nothing is suspect before the first beats flow.
		s.mu.Lock()
		for _, dn := range s.dns {
			if dn != nil {
				dn.startHeartbeats(nn.Addr(), s.hbEvery)
			}
		}
		s.mu.Unlock()
		s.mgr.Start()
	}
	return s, nil
}

// RepairManager exposes the control plane for tests and benchmarks
// (nil when Start ran without WithRepairManager).
//
//repolint:ignore deadexport ROADMAP 7: the managed_recovery workload reads the manager's state
func (s *System) RepairManager() *repairmgr.Manager { return s.mgr }

// Telemetry returns the system-wide metrics registry (nil when Start
// ran without WithTelemetry).
func (s *System) Telemetry() *telemetry.Registry { return s.reg }

// MetricsAddr returns the namenode's debug HTTP address ("" unless
// WithTelemetry ran with HTTP enabled).
//
//repolint:ignore deadexport ROADMAP 6(d): pbrsctl explain reads histogram exemplars from /metrics
func (s *System) MetricsAddr() string { return s.nn.DebugAddr() }

// DataNodeMetricsAddr returns one datanode daemon's debug HTTP address
// ("" when that daemon is down or HTTP is disabled).
//
//repolint:ignore deadexport ROADMAP 6(d): pbrsctl explain reads histogram exemplars from /metrics
func (s *System) DataNodeMetricsAddr(machine int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if machine < 0 || machine >= len(s.dns) || s.dns[machine] == nil {
		return ""
	}
	return s.dns[machine].DebugAddr()
}

// NameAddr returns the namenode's address — the only address a Client
// needs.
func (s *System) NameAddr() string { return s.nn.Addr() }

// Cluster exposes the storage substrate's metadata plane for
// in-process inspection (tests, victim selection in the load
// generator). Callers get the hdfs.Metadata interface, not the
// substrate's concrete type.
func (s *System) Cluster() hdfs.Metadata { return s.cluster }

// Code returns the cluster's codec.
func (s *System) Code() ec.Code { return s.code }

// dataNodeAddrs snapshots the address table: index = machine id, ""
// for a machine whose daemon is down.
func (s *System) dataNodeAddrs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.dns))
	for m, dn := range s.dns {
		if dn != nil {
			out[m] = dn.Addr()
		}
	}
	return out
}

// KillDataNode fails the machine and tears down its daemon: the
// namenode stops listing it first (so refreshed metadata is
// consistent), then every open connection to it is severed. With
// persistent stores (Config.StoreFactory = hdfs.ExtentStoreFactory)
// the kill is a real crash: the store handle closes and the machine's
// in-memory block index is discarded — only the segment files on disk
// survive.
func (s *System) KillDataNode(machine int) error { return s.killDataNode(machine) }

func (s *System) killDataNode(machine int) error {
	s.mu.Lock()
	if machine < 0 || machine >= len(s.dns) {
		s.mu.Unlock()
		return fmt.Errorf("serve: no machine %d", machine)
	}
	dn := s.dns[machine]
	s.dns[machine] = nil
	s.mu.Unlock()
	if err := s.cluster.CrashMachine(machine); err != nil {
		return err
	}
	if dn != nil {
		dn.close()
	}
	return nil
}

// RestartDataNode brings the machine back and relaunches its daemon on
// a fresh port; clients discover the new address through the
// namenode's info method. With a persistent store the machine's block
// index is RECONSTRUCTED by sequentially scanning its segment files —
// the restart serves exactly what the disk holds, not what a
// conveniently retained map remembers.
func (s *System) RestartDataNode(machine int) error { return s.restartDataNode(machine) }

func (s *System) restartDataNode(machine int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if machine < 0 || machine >= len(s.dns) {
		return fmt.Errorf("serve: no machine %d", machine)
	}
	if s.dns[machine] != nil {
		return nil // already up
	}
	if err := s.cluster.RecoverMachine(machine); err != nil {
		return err
	}
	tele, err := s.nodeTele("datanode", "datanode-"+strconv.Itoa(machine))
	if err != nil {
		return err
	}
	dn, err := startDataNode(s.cluster, machine, tele)
	if err != nil {
		tele.close()
		return err
	}
	s.dns[machine] = dn
	if s.mgr != nil {
		// Re-register with the failure detector: restart the heartbeat
		// loop AND deliver one beat synchronously, so a restart inside
		// the grace window cancels the pending repair instead of racing
		// the next heartbeat tick against the death deadline.
		dn.startHeartbeats(s.nn.Addr(), s.hbEvery)
		if err := s.mgr.Heartbeat(machine); err != nil {
			return err
		}
	}
	return nil
}

// ThrottleDataNode delays every data-path RPC (dn.read, dn.partial)
// on the machine's daemon by delay — the injected shape of a machine
// that is slow but alive. Heartbeats keep flowing, so the failure
// detector never confuses the slowdown with a death; clients see it
// purely as latency. delay 0 clears the throttle; a restart also
// clears it (the fresh daemon starts unthrottled).
//
//repolint:ignore deadexport ROADMAP 7: the slow_node_read workload slows one datanode
func (s *System) ThrottleDataNode(machine int, delay time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if machine < 0 || machine >= len(s.dns) {
		return fmt.Errorf("serve: no machine %d", machine)
	}
	dn := s.dns[machine]
	if dn == nil {
		return fmt.Errorf("serve: machine %d daemon is down", machine)
	}
	dn.setThrottle(delay)
	return nil
}

// Close tears down the control plane, the namenode, and every
// datanode daemon.
func (s *System) Close() error {
	if s.mgr != nil {
		s.mgr.Stop()
	}
	if s.nn != nil {
		s.nn.close()
	}
	s.mu.Lock()
	dns := append([]*DataNode(nil), s.dns...)
	s.mu.Unlock()
	for _, dn := range dns {
		if dn != nil {
			dn.close()
		}
	}
	if s.cluster != nil {
		return s.cluster.Close()
	}
	return nil
}
