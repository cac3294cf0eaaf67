package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"syscall"
	"time"

	"repro/internal/ec"
	"repro/internal/hdfs"
	"repro/internal/serve"
	"repro/internal/stats"
)

// limit ends a measured window: after a wall-clock duration (the
// contract's --seconds) or after a fixed number of ops per client
// (-ops: the op sequence is a function of the seed alone, so with one
// client every count repeats exactly).
type limit struct {
	seconds float64
	ops     int
}

func (l limit) deadline(start time.Time) time.Time {
	if l.ops > 0 {
		return time.Time{}
	}
	return start.Add(time.Duration(l.seconds * float64(time.Second)))
}

// done reports whether a client that has completed i ops stops.
func (l limit) done(i int, deadline time.Time) bool {
	if l.ops > 0 {
		return i >= l.ops
	}
	return !time.Now().Before(deadline)
}

// sliceLen is the length of one slice of a timed window. Throughput
// and CPU cost are reported as the median over the window's slices, so
// a stall of a few hundred milliseconds (a GC cycle, a burst of
// write-back, a noisy neighbour) moves one slice, not the result.
const sliceLen = time.Second

// event is one verified operation: when it completed (since the window
// started), the user bytes it moved, and how long it ran.
type event struct {
	at, bytes, busyNs int64
}

// slice is what one sliceLen of the window added up to.
type slice struct {
	bytes  int64
	busyNs int64   // summed op time (node_repair's denominator)
	wallNs int64   // the slice's own length
	cpuSec float64 // process CPU spent during it
}

// ingested is one acknowledged fresh file and the pool payload it holds.
type ingested struct {
	name string
	pool int
}

// tally is what one window measured. Every op is attempted once and
// either verified byte-for-byte or counted failed.
type tally struct {
	attempted, failed int64
	failures          []string // first few, for the log
	events            []event  // of one window, until slice() folds them
	slices            []slice

	readNs      []int64
	readBytes   int64
	ingestNs    []int64
	ingestBytes int64
	acked       []ingested

	// node_repair
	fixNs         []int64
	rebuiltBytes  int64
	rebuiltBlocks int64
	planBytes     int64 // what the codec's plans said the rebuilt shards cost
	rsBytes       int64 // what plain RS would have read: k x shard per block
	xrackBytes    int64 // cross-rack bytes over the fixer passes

	wall time.Duration
	// perBusy makes throughput bytes per second of the time operations
	// ran instead of per second of wall time: node_repair's fixer passes
	// are timed, the kills and restarts between them are not.
	perBusy bool
}

// done records one verified operation that started at began and took
// took, for the slice accounting.
func (t *tally) done(windowStart, began time.Time, took time.Duration, bytes int64) {
	t.events = append(t.events, event{at: int64(began.Add(took).Sub(windowStart)), bytes: bytes, busyNs: int64(took)})
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 5 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.failures = append(t.failures, o.failures...)
	t.events = append(t.events, o.events...)
	t.slices = append(t.slices, o.slices...)
	t.wall += o.wall
	t.perBusy = t.perBusy || o.perBusy
	t.fixNs = append(t.fixNs, o.fixNs...)
	t.rebuiltBytes += o.rebuiltBytes
	t.rebuiltBlocks += o.rebuiltBlocks
	t.readNs = append(t.readNs, o.readNs...)
	t.readBytes += o.readBytes
	t.ingestNs = append(t.ingestNs, o.ingestNs...)
	t.ingestBytes += o.ingestBytes
	t.acked = append(t.acked, o.acked...)
}

// goodBytes is the verified user data the window moved.
func (t *tally) goodBytes() int64 { return t.readBytes + t.ingestBytes + t.rebuiltBytes }

// ops counts the successful operations of the window.
func (t *tally) ops() int64 { return int64(len(t.readNs) + len(t.ingestNs) + len(t.fixNs)) }

func sumNs(ns []int64) (total int64) {
	for _, v := range ns {
		total += v
	}
	return total
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runWindow drives the workload's closed-loop clients until lim ends.
func (e *env) runWindow(lim limit) *tally {
	total := &tally{perBusy: e.sp.Kind == kindRepair}
	start := time.Now()
	deadline := lim.deadline(start)
	// CPU time is sampled at every slice boundary by a goroutine of the
	// window's own, which sleeps in between.
	cpuAt := []float64{cpuSeconds()}
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		if lim.ops > 0 {
			return
		}
		for next := start.Add(sliceLen); next.Before(deadline); next = next.Add(sliceLen) {
			select {
			case <-stop:
				return
			case <-time.After(time.Until(next)):
				cpuAt = append(cpuAt, cpuSeconds())
			}
		}
	}()
	e.tr.setOn(true)
	if e.sp.Kind == kindRepair {
		e.repairRounds(total, lim, start, deadline)
	} else {
		parts := make([]*tally, len(e.clients))
		var wg sync.WaitGroup
		for i := range e.clients {
			i := i
			parts[i] = &tally{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				e.clientLoop(i, parts[i], lim, start, deadline)
			}()
		}
		wg.Wait()
		for _, p := range parts {
			total.merge(p)
		}
	}
	e.tr.setOn(false)
	total.wall = time.Since(start)
	close(stop)
	<-sampled
	cpuAt = append(cpuAt, cpuSeconds())
	total.slice(cpuAt)
	return total
}

// slice folds the window's events into slices. cpuAt holds the CPU
// clock at the start, at every slice boundary inside the window, and
// at its end, so the last slice takes whatever ran past the deadline
// (and a fixed-op window is one slice).
func (t *tally) slice(cpuAt []float64) {
	n := len(cpuAt) - 1
	t.slices = make([]slice, n)
	for i := range t.slices {
		t.slices[i].wallNs = int64(sliceLen)
		t.slices[i].cpuSec = cpuAt[i+1] - cpuAt[i]
	}
	t.slices[n-1].wallNs = int64(t.wall) - int64(n-1)*int64(sliceLen)
	for _, ev := range t.events {
		i := int(ev.at / int64(sliceLen))
		if i >= n {
			i = n - 1
		}
		t.slices[i].bytes += ev.bytes
		t.slices[i].busyNs += ev.busyNs
	}
	t.events = nil
}

// sliceMBps is every slice's throughput.
func (t *tally) sliceMBps() []float64 {
	var out []float64
	for _, s := range t.slices {
		ns := s.wallNs
		if t.perBusy {
			ns = s.busyNs
		}
		if s.bytes > 0 {
			out = append(out, ratio(float64(s.bytes)/1e6, float64(ns)/1e9))
		}
	}
	return out
}

// rates are the window's throughput in MB/s and CPU cost in s/GB, each
// the median over slices.
func (t *tally) rates() (mbps, cpuPerGB float64) {
	var cpu []float64
	for _, s := range t.slices {
		if s.bytes > 0 {
			cpu = append(cpu, ratio(s.cpuSec, float64(s.bytes)/1e9))
		}
	}
	return stats.Median(t.sliceMBps()), stats.Median(cpu)
}

// clientLoop is one closed-loop client: the next op is issued only
// after the previous one returned and was checked.
func (e *env) clientLoop(idx int, t *tally, lim limit, start, deadline time.Time) {
	cl := e.clients[idx]
	rng := rand.New(rand.NewSource(e.in.seed*1000003 + int64(idx) + 1))
	pick := newPicker(rng, e.targets, e.sp.ZipfS)
	for i := 0; !lim.done(i, deadline); i++ {
		t.attempted++
		if e.sp.IngestFrac > 0 && rng.Float64() < e.sp.IngestFrac {
			e.ingestOp(cl, idx, i, rng.Intn(len(e.in.pool)), t, start)
			continue
		}
		name := pick.next()
		o := e.tr.beginOp()
		began := time.Now()
		data, err := cl.ReadFile(name)
		took := time.Since(began)
		e.tr.endOp(o, "ReadFile", int64(len(data)))
		switch {
		case err != nil:
			t.fail("read %s: %v", name, err)
		case !bytes.Equal(data, e.in.content[name]):
			t.fail("read %s: content mismatch", name)
		default:
			t.readNs = append(t.readNs, int64(took))
			t.readBytes += int64(len(data))
			t.done(start, began, took, int64(len(data)))
		}
	}
}

// ingestOp writes and raids one fresh file; the pair is one op.
func (e *env) ingestOp(cl *serve.Client, idx, seq, pool int, t *tally, start time.Time) {
	name := fmt.Sprintf("bench/i%d-%06d", idx, seq)
	data := e.in.pool[pool]
	o := e.tr.beginOp()
	began := time.Now()
	err := cl.WriteFile(name, data)
	if err == nil {
		err = cl.RaidFile(name)
	}
	took := time.Since(began)
	e.tr.endOp(o, "Ingest", int64(len(data)))
	if err != nil {
		t.fail("ingest %s: %v", name, err)
		return
	}
	t.ingestNs = append(t.ingestNs, int64(took))
	t.ingestBytes += int64(len(data))
	t.done(start, began, took, int64(len(data)))
	t.acked = append(t.acked, ingested{name: name, pool: pool})
}

// planCost is the codec's single-shard repair download for one stripe
// position at one shard size; every stripe here is full, so it depends
// on nothing else.
type planKey struct {
	pos       int
	shardSize int64
}

func (e *env) planCost(cache map[planKey]int64, pos int, shardSize int64) (int64, error) {
	k := planKey{pos, shardSize}
	if n, ok := cache[k]; ok {
		return n, nil
	}
	plan, err := e.plain.PlanRepair(pos, shardSize, ec.AllAliveExcept(pos))
	if err != nil {
		return 0, err
	}
	cache[k] = plan.TotalBytes()
	return cache[k], nil
}

// lostOn sums, for the blocks a machine holds, their bytes and the
// codec's plan cost of rebuilding each one.
func (e *env) lostOn(machine int, cache map[planKey]int64) (blocks []hdfs.BlockID, bytes, planBytes, rsBytes int64, err error) {
	md := e.sys.Cluster()
	blocks = md.BlocksOn(machine)
	for _, id := range blocks {
		bi, ok := md.BlockInfoByID(id)
		if !ok || bi.Stripe < 0 {
			return nil, 0, 0, 0, fmt.Errorf("block %d on machine %d is not striped", id, machine)
		}
		sd, err := md.Stripe(bi.Stripe)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		cost, err := e.planCost(cache, bi.StripePos, sd.ShardSize)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		// The paper's saving, as an invariant: a data shard's repair must
		// read less than the k whole shards plain RS would.
		if bi.StripePos < dataShards && cost >= int64(dataShards)*sd.ShardSize {
			return nil, 0, 0, 0, fmt.Errorf("repair plan of data shard %d reads %d bytes, no less than RS", bi.StripePos, cost)
		}
		bytes += bi.Size
		planBytes += cost
		rsBytes += int64(dataShards) * sd.ShardSize
	}
	return blocks, bytes, planBytes, rsBytes, nil
}

// repairRounds is the node_repair window. Each round kills the next
// victim of a seeded permutation, times one block-fixer pass, checks
// the pass against the codec's own plans, and replaces the machine
// with an empty one (decommission, restart) so the cluster never runs
// out of machines and no stale replica inflates the stored bytes.
func (e *env) repairRounds(t *tally, lim limit, start, deadline time.Time) {
	md := e.sys.Cluster()
	order := rand.New(rand.NewSource(e.in.seed*1000003 + 7)).Perm(md.Machines())
	plans := map[planKey]int64{}
	for round := 0; !lim.done(round, deadline); round++ {
		victim := order[round%len(order)]
		t.attempted++
		lost, lostBytes, planBytes, rsBytes, err := e.lostOn(victim, plans)
		if err != nil {
			t.fail("round %d: %v", round, err)
			return
		}
		x0 := md.Network().CrossRackBytes()
		if err := e.sys.KillDataNode(victim); err != nil {
			t.fail("round %d: kill %d: %v", round, victim, err)
			return
		}
		o := e.tr.beginOp()
		began := time.Now()
		rep, err := e.admin.RunBlockFixer()
		took := time.Since(began)
		e.tr.endOp(o, "RunBlockFixer", lostBytes)
		xrack := md.Network().CrossRackBytes() - x0
		// One write-out per rebuilt block is allowed on top of the plan:
		// a block decoded on one machine may be shipped to another.
		bound := planBytes + lostBytes
		switch {
		case err != nil:
			t.fail("round %d: fixer: %v", round, err)
		case rep.Unrecoverable != 0:
			t.fail("round %d: %d blocks unrecoverable", round, rep.Unrecoverable)
		case rep.RepairedStriped != len(lost):
			t.fail("round %d: rebuilt %d of %d lost blocks", round, rep.RepairedStriped, len(lost))
		case xrack > bound:
			t.fail("round %d: %d cross-rack bytes exceed the plans' %d", round, xrack, bound)
		case !md.Health().Healthy():
			t.fail("round %d: cluster not healthy after the pass", round)
		default:
			t.fixNs = append(t.fixNs, int64(took))
			t.done(start, began, took, lostBytes)
			t.rebuiltBytes += lostBytes
			t.rebuiltBlocks += int64(len(lost))
			t.planBytes += planBytes
			t.rsBytes += rsBytes
			t.xrackBytes += xrack
		}
		md.DecommissionMachine(victim)
		if err := e.sys.RestartDataNode(victim); err != nil {
			t.fail("round %d: restart %d: %v", round, victim, err)
			return
		}
	}
}

// verifyAfter is the correctness gate after the window: everything
// acknowledged reads back, and after repairs every file is intact.
func (e *env) verifyAfter(t *tally) {
	// A fresh client: one dialled before a machine was replaced keeps
	// its old address and would reconstruct instead of reading.
	cl, err := serve.Dial(e.sys.NameAddr(), e.code)
	if err != nil {
		t.fail("dial for read-back: %v", err)
		return
	}
	defer cl.Close()
	switch e.sp.Kind {
	case kindIngest:
		for _, f := range t.acked {
			data, err := cl.ReadFile(f.name)
			if err != nil || !bytes.Equal(data, e.in.pool[f.pool]) {
				t.fail("read-back of ingested %s failed: %v", f.name, err)
			}
		}
	case kindRepair:
		if h := e.sys.Cluster().Health(); !h.Healthy() {
			t.fail("cluster unhealthy after the run: %+v", h)
		}
		for _, name := range e.in.names {
			if err := e.readCheck(cl, name); err != nil {
				t.fail("read-back after repair: %v", err)
			}
		}
	}
}
