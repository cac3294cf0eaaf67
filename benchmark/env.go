package main

import (
	"bytes"
	"fmt"
	"os"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/extent"
	"repro/internal/hdfs"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// env is one live system under test with its inputs loaded: a
// serve.System on 16 racks x 2 machines, Piggybacked-RS(10,4),
// replication 3 before raid, every datanode on a real extent store in
// a temp dir.
type env struct {
	sp  spec
	in  *inputs
	dir string
	sys *serve.System
	// code is what clients dial with: the plain codec, or the timing
	// decorator when the run is traced.
	code ec.Code
	// plain is always the undecorated codec, for the benchmark's own
	// plan arithmetic (correctness bounds must not show up as spans).
	plain *core.Code
	tr    *tracer             // nil when untraced
	ext   *telemetry.Registry // the extent stores' instruments; nil when untraced

	admin   *serve.Client   // loads files, drives the fixer
	clients []*serve.Client // the workload's closed-loop clients
	// targets are the files read ops draw from: every preloaded file,
	// or for degraded_read only those that lost a block.
	targets []string
	victim  int // degraded_read: the machine killed during set-up; else -1

	mu     sync.Mutex
	stores map[int]*extent.Store // latest store handle per machine
}

// extentOf reaches the extent store behind a factory-built BlockStore.
type extentOf interface{ Extent() *extent.Store }

// fsyncPolicy is FsyncNever, which is also what serve.WithDataDir
// gives a system that sets no policy. With FsyncInterval every number
// of the write-heavy workloads was the host disk's fsync latency, which
// on the reference machine moved between 1 ms and 40 ms within the
// hour: ingest_mixed ran at 200 MB/s or at 5 MB/s with the same binary.
// The sandbox's disk is not what this benchmark measures; the stores
// still write real segment files through the page cache.
const fsyncPolicy = extent.FsyncNever

// storeFactory opens each datanode's extent store, remembers the
// handle (a restart opens a new one) and, when traced, wraps it in the
// timing decorator.
func (e *env) storeFactory() func(machine int) (hdfs.BlockStore, error) {
	inner := hdfs.ExtentStoreFactory(e.dir, extent.Options{Fsync: fsyncPolicy, Telemetry: e.ext})
	return func(machine int) (hdfs.BlockStore, error) {
		st, err := inner(machine)
		if err != nil {
			return nil, err
		}
		if x, ok := st.(extentOf); ok {
			e.mu.Lock()
			e.stores[machine] = x.Extent()
			e.mu.Unlock()
		}
		if e.tr != nil {
			return &tracedStore{BlockStore: st, tr: e.tr}, nil
		}
		return st, nil
	}
}

// setUp starts the system, preloads and raids the working set, applies
// the workload's fault, dials nclients clients and warms them up. The
// whole of it is what setup_s times.
func setUp(sp spec, in *inputs, tmpRoot string, nclients int, tr *tracer) (*env, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, sp.Name+"-")
	if err != nil {
		return nil, err
	}
	plain, err := core.New(dataShards, parityShards)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e := &env{sp: sp, in: in, dir: dir, plain: plain, tr: tr, victim: -1, stores: map[int]*extent.Store{}}
	e.code = wrapCode(plain, tr)
	var opts []serve.Option
	if tr != nil {
		e.ext = telemetry.NewRegistry()
		opts = append(opts, serve.WithTelemetry(serve.TelemetryConfig{}))
	}
	e.sys, err = serve.Start(hdfs.Config{
		Topology:       cluster.Topology{Racks: racks, MachinesPerRack: machinesPerRack},
		Code:           e.code,
		BlockSize:      sp.BlockSize,
		Replication:    replication,
		Seed:           in.seed,
		StoreFactory:   e.storeFactory(),
		NodeCacheBytes: sp.NodeCache,
	}, opts...)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := e.load(nclients); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *env) load(nclients int) error {
	var err error
	if e.admin, err = serve.Dial(e.sys.NameAddr(), e.code); err != nil {
		return err
	}
	for _, name := range e.in.names {
		if err := e.admin.WriteFile(name, e.in.content[name]); err != nil {
			return fmt.Errorf("preload %s: %w", name, err)
		}
		if err := e.admin.RaidFile(name); err != nil {
			return fmt.Errorf("raid %s: %w", name, err)
		}
	}
	e.targets = e.in.names
	if e.sp.Kind == kindDegraded {
		if err := e.killBusiest(); err != nil {
			return err
		}
	}
	var copts []serve.ClientOption
	if e.sp.ClientCache > 0 {
		copts = append(copts, serve.WithBlockCache(e.sp.ClientCache))
	}
	for i := 0; i < nclients; i++ {
		cl, err := serve.Dial(e.sys.NameAddr(), e.code, copts...)
		if err != nil {
			return err
		}
		e.clients = append(e.clients, cl)
	}
	// Warm-up: every client reads every target once, coldest first so
	// an LRU cache ends the pass holding the hot end of a Zipf set.
	// Connections are dialled, latency tables filled, the page cache
	// warm — and every byte is checked before anything is timed.
	for _, cl := range e.clients {
		for i := len(e.targets) - 1; i >= 0; i-- {
			if err := e.readCheck(cl, e.targets[i]); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

// readCheck reads one preloaded file and compares every byte.
func (e *env) readCheck(cl *serve.Client, name string) error {
	data, err := cl.ReadFile(name)
	if err != nil {
		return err
	}
	if !bytes.Equal(data, e.in.content[name]) {
		return fmt.Errorf("%s: content mismatch", name)
	}
	return nil
}

// killBusiest kills the machine holding the most data blocks of the
// working set and narrows the read targets to the files that lost one.
// Nothing repairs it: every later read of a target reconstructs.
func (e *env) killBusiest() error {
	md := e.sys.Cluster()
	holds := make([]int, md.Machines())
	where := make(map[string][]int, len(e.in.names))
	for _, name := range e.in.names {
		_, blocks, err := md.FileBlocks(name)
		if err != nil {
			return err
		}
		for _, b := range blocks {
			for _, m := range b.Locations {
				holds[m]++
				where[name] = append(where[name], m)
			}
		}
	}
	victim := 0
	for m, n := range holds {
		if n > holds[victim] {
			victim = m
		}
	}
	e.victim = victim
	e.targets = nil
	for _, name := range e.in.names {
		for _, m := range where[name] {
			if m == victim {
				e.targets = append(e.targets, name)
				break
			}
		}
	}
	if len(e.targets) == 0 {
		return fmt.Errorf("machine %d holds no data block", victim)
	}
	return e.sys.KillDataNode(victim)
}

// diskStats sums the extent stores' footprint over the machines that
// are up.
func (e *env) diskStats() (disk, live int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for m, st := range e.stores {
		if !e.sys.Cluster().MachineAlive(m) {
			continue
		}
		s := st.Stats()
		disk += s.DiskBytes
		live += s.LiveBytes
	}
	return disk, live
}

// close stops every client and daemon and removes the temp dir.
func (e *env) close() error {
	for _, cl := range e.clients {
		cl.Close()
	}
	if e.admin != nil {
		e.admin.Close()
	}
	err := e.sys.Close()
	if rmErr := os.RemoveAll(e.dir); err == nil {
		err = rmErr
	}
	return err
}
