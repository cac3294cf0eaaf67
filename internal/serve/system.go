// System wires a full serving cluster together on localhost: one
// hdfs metadata plane as the storage substrate, one datanode daemon per
// machine, and one namenode fronting the metadata and running the
// repair manager — each daemon on its own TCP port. Recovery has one
// driver: datanodes heartbeat the namenode, the manager's failure
// detector declares a machine dead once it has been silent past the
// grace window (repairmgr.DefaultConfig: the paper's 15 minutes), and
// its queue repairs what the machine held; the "fixer" RPC is the
// manager's repair-now. It is also the failure injector: KillDataNode
// marks the machine dead at the namenode AND tears down its daemon with
// every open connection, so clients experience the same thing a real
// machine loss produces — connections cut mid-frame, then metadata that
// no longer lists the machine.
package serve

import (
	"fmt"
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
	// mgrCfg replaces repairmgr.DefaultConfig(); only the package's
	// tests set it (withRepairConfig), to shorten the windows.
	mgrCfg    *repairmgr.Config
	telemetry bool
}

// WithTelemetry instruments the whole system on one shared metrics
// registry — every daemon's RPC path, the storage substrate's lock and
// meta-op stats, the repair engine, and the repair manager — read
// through System.Telemetry.
func WithTelemetry(TelemetryConfig) Option {
	return func(o *sysOptions) { o.telemetry = true }
}

// System is a running serving cluster.
type System struct {
	cluster *hdfs.Cluster
	code    ec.Code
	nn      *NameNode
	mgr     *repairmgr.Manager
	hbEvery time.Duration // each datanode's heartbeat period

	reg *telemetry.Registry // nil when telemetry is disabled

	mu  sync.Mutex
	dns []*DataNode // nil entry = machine's daemon currently down
}

// nodeTele builds one daemon's telemetry handle (nil when the system
// runs without WithTelemetry).
func (s *System) nodeTele(role string) *nodeTelemetry {
	if s.reg == nil {
		return nil
	}
	return &nodeTelemetry{reg: s.reg, role: role}
}

// Start builds the storage cluster from cfg, the repair manager over
// it, the namenode, and one heartbeating datanode daemon per machine,
// then starts the manager's control loop. Close must be called to
// release the listeners.
func Start(cfg hdfs.Config, opts ...Option) (*System, error) {
	var o sysOptions
	for _, opt := range opts {
		opt(&o)
	}
	s := &System{code: cfg.Code}
	if o.telemetry {
		s.reg = telemetry.NewRegistry()
		// The substrate and the control plane pick their instruments off
		// the same registry, so one snapshot shows every tier.
		cfg.Telemetry = s.reg
	}
	cluster, err := hdfs.New(cfg)
	if err != nil {
		return nil, err
	}
	s.cluster = cluster
	mgrCfg := repairmgr.DefaultConfig()
	if o.mgrCfg != nil {
		mgrCfg = *o.mgrCfg
	}
	mgrCfg.Telemetry = s.reg
	if s.mgr, err = repairmgr.New(cluster, mgrCfg); err != nil {
		cluster.Close()
		return nil, err
	}
	// Three beats per suspect window keeps one lost frame from
	// mattering.
	s.hbEvery = max(mgrCfg.SuspectAfter/3, 5*time.Millisecond)
	nn, err := startNameNode(cluster, cfg.Code, s.dataNodeAddrs, s.mgr, s.nodeTele("namenode"))
	if err != nil {
		s.Close()
		return nil, err
	}
	s.nn = nn
	// The detector registered every node alive at construction, so no
	// datanode needs to beat before its first period is up.
	s.dns = make([]*DataNode, cluster.Machines())
	for m := range s.dns {
		dn, err := s.startDataNode(m)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.dns[m] = dn
	}
	s.mgr.Start()
	return s, nil
}

// startDataNode launches machine m's daemon, with its telemetry handle
// and its heartbeats to the namenode.
func (s *System) startDataNode(m int) (*DataNode, error) {
	return startDataNode(s.cluster, m, s.nodeTele("datanode"), s.nn.Addr(), s.hbEvery)
}

// Telemetry returns the system-wide metrics registry (nil when Start
// ran without WithTelemetry).
func (s *System) Telemetry() *telemetry.Registry { return s.reg }

// NameAddr returns the namenode's address — the only address a Client
// needs.
func (s *System) NameAddr() string { return s.nn.Addr() }

// Cluster exposes the storage substrate's metadata plane for
// in-process inspection (tests, victim selection in the load
// generator).
func (s *System) Cluster() *hdfs.Cluster { return s.cluster }

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
// consistent), then every open connection to it is severed. The kill
// is a real crash: the store handle closes and the machine's in-memory
// block index is discarded — only the segment files on disk survive.
// The daemon is torn down even when closing the store fails: its slot
// is already empty, so nothing else would find it.
func (s *System) KillDataNode(machine int) error {
	s.mu.Lock()
	if machine < 0 || machine >= len(s.dns) {
		s.mu.Unlock()
		return fmt.Errorf("serve: no machine %d", machine)
	}
	dn := s.dns[machine]
	s.dns[machine] = nil
	s.mu.Unlock()
	err := s.cluster.CrashMachine(machine)
	if dn != nil {
		dn.close()
	}
	return err
}

// RestartDataNode brings the machine back and relaunches its daemon on
// a fresh port; clients discover the new address through the
// namenode's info method. The machine's block index is RECONSTRUCTED
// by sequentially scanning its segment files — the restart serves
// exactly what the disk holds, not what a conveniently retained map
// remembers.
func (s *System) RestartDataNode(machine int) error {
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
	dn, err := s.startDataNode(machine)
	if err != nil {
		return err
	}
	s.dns[machine] = dn
	// Re-register with the failure detector by one beat delivered
	// synchronously, so a restart inside the grace window cancels the
	// pending repair instead of racing the daemon's first heartbeat
	// tick against the death deadline.
	return s.mgr.Heartbeat(machine)
}

// ThrottleDataNode delays every data-path RPC (dn.read, dn.partial)
// on the machine's daemon by delay — the injected shape of a machine
// that is slow but alive. Heartbeats keep flowing, so the failure
// detector never confuses the slowdown with a death; clients see it
// purely as latency. delay 0 clears the throttle; a restart also
// clears it (the fresh daemon starts unthrottled).
//
//repolint:ignore deadexport test fault for TestLatencyAwareOrderingAvoidsSlowReplica and TestDegradedReadSurvivesHelperDyingMidFetch
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
	s.mgr.Stop()
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
