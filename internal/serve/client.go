// The serving-layer client. Reads are replica-spread and self-healing:
// each block read rotates across live replicas, and when none answers
// — the holder died, or died mid-transfer — the client fetches the
// stripe layout from the namenode, downloads the helper ranges of the
// codec's repair plan that the read does not already hold from their
// datanodes, and decodes the missing block locally (a degraded read;
// see "Degraded reads and lent blocks" in the package doc). Callers see
// bytes, never failures, as long as the stripe stays recoverable; the
// Counters expose how many block reads had to take the degraded path.
package serve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/ec"
	"repro/internal/engine"
	"repro/internal/telemetry"
)

// defaultTimeout bounds one RPC round trip. Localhost RPCs answer in
// microseconds; the bound only matters when a daemon is wedged.
const defaultTimeout = 10 * time.Second

// readAttempts bounds how many times a block read refreshes metadata
// and retries after transport failures before giving up.
const readAttempts = 4

// perNodePartialBudget is the extra deadline budget granted per helper
// of a partial-sum subtree: one dn.partial RPC covers its whole
// subtree's sequential fold, so its timeout must grow with the tree.
const perNodePartialBudget = 500 * time.Millisecond

// partialTimeout returns the deadline for a dn.partial call over a
// subtree of n nodes.
func partialTimeout(n int) time.Duration {
	return defaultTimeout + time.Duration(n)*perNodePartialBudget
}

// fetchArenas recycles the buffers a degraded read downloads helper
// ranges into, one arena per read in flight.
var fetchArenas = sync.Pool{New: func() any { return new(engine.Scratch) }}

// conn is one pooled client connection: requests on it are serialised
// (the protocol is strict request/response lockstep).
type conn struct {
	mu sync.Mutex
	nc net.Conn
	br *bufio.Reader
}

func dialConn(addr string, timeout time.Duration) (*conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &conn{nc: nc, br: bufio.NewReaderSize(nc, frameReadBuffer)}, nil
}

// call performs one RPC round trip. A transport failure leaves the
// connection unusable; callers drop it from their pool. A RemoteError
// means the far side answered and said no.
//
// The deadline is refreshed per PHASE of the exchange, not set once
// for the whole call: the write phase gets a fresh budget, and the
// read phase gets another one armed only after the request is fully
// written. A single up-front deadline silently shrinks the read budget
// by however long the write took, and — the regression that motivated
// this — any deadline left armed on the pooled connection after a call
// poisons the NEXT exchange on a client held open past its timeout.
// Both deadlines are disarmed on success so an idle pooled connection
// carries no ticking clock.
//
// The response payload is read into dst when its capacity holds it
// (see readFrame); nil allocates.
func (c *conn) call(req *request, payload []byte, timeout time.Duration, dst []byte) (*response, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.nc.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
		return nil, nil, err
	}
	if err := writeFrame(c.nc, req, payload); err != nil {
		return nil, nil, err
	}
	if err := c.nc.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return nil, nil, err
	}
	var resp response
	out, err := readFrame(c.br, &resp, dst)
	if err != nil {
		return nil, nil, err
	}
	if err := c.nc.SetDeadline(time.Time{}); err != nil {
		return nil, nil, err
	}
	if !resp.OK {
		return nil, nil, &RemoteError{Code: resp.Code, Msg: resp.Err}
	}
	return &resp, out, nil
}

func (c *conn) close() { c.nc.Close() }

// isCorruptReplicaErr reports whether a datanode RPC failed because
// the replica's stored bytes failed checksum verification.
func isCorruptReplicaErr(err error) bool {
	var remote *RemoteError
	return errors.As(err, &remote) && remote.Code == codeCorruptReplica
}

// Counters are a client's cumulative operation counts. DegradedBlocks
// counts block reads that were served by reconstruction rather than a
// replica; DegradedBlocks/BlocksRead is the degraded-read share.
// DegradedBytesFetched is the payload the client downloaded to serve
// those reconstructions — the paper's bottleneck quantity — and
// DegradedBytesLent the part of their repair plans answered from blocks
// the same ReadFile already held. For every reconstruction the
// conventional fan-in serves,
//
//	DegradedBytesFetched + DegradedBytesLent == Σ plan.TotalBytes()
//
// over the reconstructed blocks' repair plans, less their reads of
// phantom positions (a short tail stripe's known zeros, which are
// neither downloaded nor held). A whole-stripe read that lost one data
// block therefore fetches only the plan's parity ranges, one block's
// worth; a partial-sum reconstruction fetches a single folded block and
// is lent nothing.
type Counters struct {
	Reads                int64 // whole-file reads completed
	Writes               int64 // whole-file writes completed
	BlocksRead           int64 // block reads completed (healthy + degraded + cache hits)
	DegradedBlocks       int64 // block reads served via reconstruction
	PartialSumBlocks     int64 // degraded reads served by the partial-sum pipeline
	DegradedBytesFetched int64 // bytes received at this client for reconstructions
	DegradedBytesLent    int64 // repair-plan bytes answered from blocks the read already held
	CorruptReplicas      int64 // replica reads refused by a datanode's checksum verification
	CacheHits            int64 // block reads served from the client block cache (WithBlockCache)
	CacheMisses          int64 // block reads that consulted the cache and went to the network
	HedgedReads          int64 // reads whose hedge timer fired a parallel reconstruction
	HedgeWins            int64 // hedged reads where reconstruction beat the pending primary
}

// ClientOption configures a Client at dial time.
type ClientOption func(*Client)

// WithPartialSumRepair makes the client's degraded reads take the tree
// shape of the fold ("Degraded reads and lent blocks" in the package
// doc): instead of downloading every helper range of the repair plan, the
// client ships the plan as a rack-aware fold tree to the helpers and
// downloads ONE folded block-sized buffer from the root aggregator. Any
// failure along the tree falls back to the conventional fan-in.
func WithPartialSumRepair() ClientOption {
	return func(c *Client) { c.partialSum = true }
}

// WithTimeout overrides the per-exchange RPC deadline (default 10s).
// The budget applies to each phase of each request/response exchange
// separately — a client is never penalised for its own lifetime, only
// a single wedged write or read can trip it.
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) {
		if d > 0 {
			c.timeout = d
		}
	}
}

// WithBlockCache gives the client a sharded LRU block cache of n
// bytes: block reads consult it before any RPC and fill it on every
// successful read — healthy, degraded, and partial-sum alike. Keys are
// block ids, which is sound because stored blocks are immutable
// (rewrites allocate fresh ids); n <= 0 leaves caching off.
func WithBlockCache(n int64) ClientOption {
	return func(c *Client) { c.blockCache = cache.New(n, cache.DefaultShards) }
}

// WithHedgedReads arms hedged degraded reads for striped blocks: when
// the replica chain hasn't answered within delay, the client launches
// a stripe reconstruction in parallel and returns whichever path
// finishes first (Counters.HedgedReads / HedgeWins count the races and
// the reconstruction wins). delay <= 0 derives the delay adaptively
// from the client's observed latency quantiles — a multiple of the
// recent p95, so hedges fire on outliers, not jitter.
func WithHedgedReads(delay time.Duration) ClientOption {
	return func(c *Client) {
		c.hedge = true
		c.hedgeDelay = delay
	}
}

// WithTraceSampling samples every Nth degraded read (1 = every one)
// for distributed tracing: the sampled read mints a trace context,
// propagates it on every RPC it issues, and records a root span
// locally. Collect the assembled trace with CollectTrace after reading
// LastTraceID.
func WithTraceSampling(every int) ClientOption {
	return func(c *Client) {
		if every > 0 {
			c.sampleEvery = int64(every)
			c.spans = telemetry.NewSpanStore(0)
		}
	}
}

// Client talks to a serving cluster. It is safe for concurrent use;
// workloads wanting parallel in-flight requests should prefer one
// Client per worker, since requests on one pooled connection
// serialise.
type Client struct {
	code       ec.Code
	nameAddr   string
	timeout    time.Duration
	partialSum bool

	mu      sync.Mutex
	name    *conn
	dns     map[string]*conn
	addrs   []string // machine id → datanode address ("" = down)
	perRack int      // machines per rack, from the handshake
	// refreshedAt[m] is when a transport failure against machine m last
	// made this client re-fetch addrs (see relocated).
	refreshedAt map[int]time.Time

	rr atomic.Uint64 // rotation among latency-tied replicas

	// Read-path accelerators: the optional block cache (nil = off), the
	// always-on per-datanode latency tracker feeding replica ordering,
	// and the hedged-read arm.
	blockCache *cache.Cache
	lat        *latencyTracker
	hedge      bool
	hedgeDelay time.Duration // <= 0: adaptive (see hedgeDelayNow)

	// Operation counters live on a per-client registry, so Counters()
	// reads and the hot paths that bump them are both atomic — no
	// torn reads under -race — and a snapshot of every client metric
	// is one Registry.Snapshot away.
	reg             *telemetry.Registry
	cReads          *telemetry.Counter
	cWrites         *telemetry.Counter
	cBlocksRead     *telemetry.Counter
	cDegradedBlocks *telemetry.Counter
	cPartialBlocks  *telemetry.Counter
	cDegradedBytes  *telemetry.Counter
	cDegradedLent   *telemetry.Counter
	cCorruptReps    *telemetry.Counter
	cCacheHits      *telemetry.Counter
	cCacheMisses    *telemetry.Counter
	cHedgedReads    *telemetry.Counter
	cHedgeWins      *telemetry.Counter

	// Trace sampling state (WithTraceSampling): every Nth degraded
	// read propagates a trace context and records a client root span.
	sampleEvery int64
	degradedSeq atomic.Int64
	lastTrace   atomic.Uint64
	spans       *telemetry.SpanStore
}

// Dial connects to the namenode and fetches the cluster handshake.
// code must match the cluster's codec (the handshake enforces it by
// name): the client decodes degraded reads locally.
func Dial(nameAddr string, code ec.Code, opts ...ClientOption) (*Client, error) {
	c := &Client{
		code:     code,
		nameAddr: nameAddr,
		timeout:  defaultTimeout,
		dns:      make(map[string]*conn),
		reg:      telemetry.NewRegistry(),
		lat:      newLatencyTracker(),
	}
	c.cReads = c.reg.Counter("client_reads_total")
	c.cWrites = c.reg.Counter("client_writes_total")
	c.cBlocksRead = c.reg.Counter("client_blocks_read_total")
	c.cDegradedBlocks = c.reg.Counter("client_degraded_blocks_total")
	c.cPartialBlocks = c.reg.Counter("client_partialsum_blocks_total")
	c.cDegradedBytes = c.reg.Counter("client_degraded_bytes_total")
	c.cDegradedLent = c.reg.Counter("client_degraded_bytes_lent_total")
	c.cCorruptReps = c.reg.Counter("client_corrupt_replicas_total")
	c.cCacheHits = c.reg.Counter("client_cache_hits_total")
	c.cCacheMisses = c.reg.Counter("client_cache_misses_total")
	c.cHedgedReads = c.reg.Counter("client_hedged_reads_total")
	c.cHedgeWins = c.reg.Counter("client_hedge_wins_total")
	for _, opt := range opts {
		opt(c)
	}
	resp, err := c.nameCall(&request{Method: methodInfo}, nil)
	if err != nil {
		return nil, fmt.Errorf("serve: dial %s: %w", nameAddr, err)
	}
	if resp.Codec != code.Name() {
		return nil, fmt.Errorf("serve: cluster runs %s, client built for %s", resp.Codec, code.Name())
	}
	c.mu.Lock()
	c.addrs = resp.DataNodes
	c.perRack = resp.MachinesPerRack
	c.mu.Unlock()
	return c, nil
}

// Counters returns the cumulative operation counts. Each field is an
// atomic read of the backing registry counter, so calling concurrently
// with in-flight operations is race-free (values may trail operations
// completing mid-snapshot, as any concurrent counter read does).
func (c *Client) Counters() Counters {
	return Counters{
		Reads:                c.cReads.Value(),
		Writes:               c.cWrites.Value(),
		BlocksRead:           c.cBlocksRead.Value(),
		DegradedBlocks:       c.cDegradedBlocks.Value(),
		PartialSumBlocks:     c.cPartialBlocks.Value(),
		DegradedBytesFetched: c.cDegradedBytes.Value(),
		DegradedBytesLent:    c.cDegradedLent.Value(),
		CorruptReplicas:      c.cCorruptReps.Value(),
		CacheHits:            c.cCacheHits.Value(),
		CacheMisses:          c.cCacheMisses.Value(),
		HedgedReads:          c.cHedgedReads.Value(),
		HedgeWins:            c.cHedgeWins.Value(),
	}
}

// Telemetry exposes the client's metrics registry — the same counters
// Counters() reports, in mergeable snapshot form.
func (c *Client) Telemetry() *telemetry.Registry { return c.reg }

// LastTraceID returns the trace id of the most recent sampled degraded
// read (0 when tracing is off or nothing sampled yet).
func (c *Client) LastTraceID() uint64 { return c.lastTrace.Load() }

// Close severs every pooled connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.name != nil {
		c.name.close()
		c.name = nil
	}
	for _, cn := range c.dns {
		cn.close()
	}
	c.dns = make(map[string]*conn)
	return nil
}

// nameCall performs one namenode RPC, redialling once if the pooled
// connection has gone stale.
func (c *Client) nameCall(req *request, payload []byte) (*response, error) {
	resp, _, err := c.nameCallPayload(req, payload)
	return resp, err
}

func (c *Client) nameCallPayload(req *request, payload []byte) (*response, []byte, error) {
	for attempt := 0; attempt < 2; attempt++ {
		c.mu.Lock()
		cn := c.name
		c.mu.Unlock()
		if cn == nil {
			fresh, err := dialConn(c.nameAddr, c.timeout)
			if err != nil {
				return nil, nil, err
			}
			c.mu.Lock()
			if c.name == nil {
				c.name = fresh
				cn = fresh
			} else {
				cn = c.name
				fresh.close()
			}
			c.mu.Unlock()
		}
		resp, out, err := cn.call(req, payload, c.timeout, nil)
		if err == nil {
			return resp, out, nil
		}
		if _, remote := err.(*RemoteError); remote {
			return nil, nil, err
		}
		// Transport failure: drop the pooled connection and redial.
		c.mu.Lock()
		if c.name == cn {
			c.name = nil
		}
		c.mu.Unlock()
		cn.close()
		if attempt == 1 {
			return nil, nil, err
		}
	}
	panic("unreachable")
}

// refreshAddrs re-fetches the datanode address table — needed after a
// daemon dies (its address empties) or restarts (fresh port).
func (c *Client) refreshAddrs() error {
	resp, err := c.nameCall(&request{Method: methodInfo}, nil)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.addrs = resp.DataNodes
	c.perRack = resp.MachinesPerRack
	c.mu.Unlock()
	return nil
}

// dnCallFull performs one RPC against the given machine's datanode and
// returns the response header beside the payload — debug.trace answers
// in the header's cold body, not the payload. Partial-sum calls scale
// timeout with the fold tree's size.
//
// A transport failure may mean the daemon restarted on a fresh port
// while this client still holds the old one: the read would fall
// through to a degraded read that succeeds, and nothing would ever
// correct the table. So a transport failure re-fetches the table (at
// most once per machine per addrRefreshEvery) and, if the machine
// moved, retries there. A machine the table lists no address for is the
// same case one step later: a call that failed while the daemon was
// down already refreshed the table to "" and only another refresh
// learns of the restart.
//
// dst, when non-nil, is where the response payload lands (see
// conn.call).
func (c *Client) dnCallFull(machine int, req *request, timeout time.Duration, dst []byte) (*response, []byte, error) {
	resp, out, addr, err := c.dnCallOnce(machine, req, timeout, dst)
	if err == nil {
		return resp, out, nil
	}
	if _, remote := err.(*RemoteError); remote || !c.relocated(machine, addr) {
		return nil, nil, err
	}
	resp, out, _, err = c.dnCallOnce(machine, req, timeout, dst)
	return resp, out, err
}

// addrRefreshEvery bounds how often one machine's transport failures
// make the client re-fetch the address table: a machine that is simply
// dead fails every read of every block it held the same way, and must
// not cost a metadata RPC per block.
const addrRefreshEvery = time.Second

// relocated reports whether the namenode lists machine at another
// address than addr ("" for none), which a call just failed to reach.
func (c *Client) relocated(machine int, addr string) bool {
	c.mu.Lock()
	recent := time.Since(c.refreshedAt[machine]) < addrRefreshEvery
	if !recent {
		if c.refreshedAt == nil {
			c.refreshedAt = make(map[int]time.Time)
		}
		c.refreshedAt[machine] = time.Now()
	}
	c.mu.Unlock()
	if recent || c.refreshAddrs() != nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return machine >= 0 && machine < len(c.addrs) && c.addrs[machine] != "" && c.addrs[machine] != addr
}

// dnCallOnce is one attempt against the machine's current address,
// which it also returns ("" when the table lists none).
func (c *Client) dnCallOnce(machine int, req *request, timeout time.Duration, dst []byte) (*response, []byte, string, error) {
	c.mu.Lock()
	var addr string
	if machine >= 0 && machine < len(c.addrs) {
		addr = c.addrs[machine]
	}
	cn := c.dns[addr]
	c.mu.Unlock()
	if addr == "" {
		return nil, nil, "", fmt.Errorf("serve: datanode %d has no address (down?)", machine)
	}
	if cn == nil {
		fresh, err := dialConn(addr, timeout)
		if err != nil {
			return nil, nil, addr, err
		}
		c.mu.Lock()
		if existing := c.dns[addr]; existing != nil {
			cn = existing
			fresh.close()
		} else {
			c.dns[addr] = fresh
			cn = fresh
		}
		c.mu.Unlock()
	}
	start := time.Now()
	resp, out, err := cn.call(req, nil, timeout, dst)
	if err != nil {
		if _, remote := err.(*RemoteError); !remote {
			// A transport failure took this long to surface — that IS
			// the machine's observed latency; feeding it deprioritises
			// the node for subsequent reads. Remote errors are excluded:
			// a datanode refusing a corrupt replica answers fast, and
			// that speed says nothing about serving real payloads.
			c.lat.observe(machine, time.Since(start))
			c.mu.Lock()
			if c.dns[addr] == cn {
				delete(c.dns, addr)
			}
			c.mu.Unlock()
			cn.close()
		}
		return nil, nil, addr, err
	}
	c.lat.observe(machine, time.Since(start))
	return resp, out, addr, nil
}

// dnRead fetches one byte range of one block from a machine, into dst
// when it is non-nil and holds the range. trace, when non-nil, rides
// the request so the datanode's span parents under the caller's.
//
// A datanode answers a range with exactly its length (zero-padded past
// the block's end), so a reply of any other length is a failed replica:
// callers move on to the next one, and nothing of the wrong size is ever
// kept as a file's bytes, lent, cached or handed to the decoder. A
// successful read therefore landed in dst whenever dst could hold the
// range; a failed one may have written any part of dst, never past its
// capacity.
func (c *Client) dnRead(machine int, block, offset, length int64, trace *telemetry.TraceContext, dst []byte) ([]byte, error) {
	req := &request{Method: methodDNRead, Block: block, Offset: offset, Length: length, Trace: trace}
	_, out, err := c.dnCallFull(machine, req, c.timeout, dst)
	if err == nil && int64(len(out)) != length {
		return nil, fmt.Errorf("serve: datanode %d answered [%d,+%d) of block %d with %d bytes", machine, offset, length, block, len(out))
	}
	return out, err
}

// WriteFile stores data as a new file.
func (c *Client) WriteFile(name string, data []byte) error {
	if _, err := c.nameCall(&request{Method: methodWrite, Name: name}, data); err != nil {
		return err
	}
	c.cWrites.Inc()
	return nil
}

// RaidFile erasure-codes a file in place.
func (c *Client) RaidFile(name string) error {
	_, err := c.nameCall(&request{Method: methodRaid, Name: name}, nil)
	return err
}

// FixReport summarises a block-fixer pass driven over the wire.
type FixReport struct {
	ScannedBlocks   int
	RepairedStriped int
	ReReplicated    int
	Unrecoverable   int
}

// RunBlockFixer drives one fixer pass on the namenode.
func (c *Client) RunBlockFixer() (FixReport, error) {
	resp, err := c.nameCall(&request{Method: methodFixer}, nil)
	if err != nil {
		return FixReport{}, err
	}
	var rep FixReport
	if err := resp.cold(&rep); err != nil {
		return FixReport{}, fmt.Errorf("serve: fixer reply: %w", err)
	}
	return rep, nil
}

// FailMachine fails a machine (and its daemon) through the namenode.
func (c *Client) FailMachine(machine int) error {
	_, err := c.nameCall(&request{Method: methodFail, Machine: machine}, nil)
	return err
}

// RestoreMachine restores a machine (and its daemon) through the
// namenode.
func (c *Client) RestoreMachine(machine int) error {
	_, err := c.nameCall(&request{Method: methodRestore, Machine: machine}, nil)
	return err
}

// RepairStatus is the client-visible snapshot of the repair control
// plane — queue depth, per-node detector states, throttle and
// grace-window accounting, and the completion log that makes priority
// ordering externally observable. It crosses the wire as it stands, as
// the cold body of a repair.status reply.
type RepairStatus struct {
	Nodes           []RepairNodeState
	QueueDepth      int
	QueueByErasures map[int]int
	Paused          bool
	DegradedStripes int
	DegradedBlocks  int
	RepairsDone     int
	RepairedBytes   int64
	Unrecoverable   int
	AvoidedRepairs  int
	AvoidedBytes    int64
	LostBlocks      int
	ScrubSlices     int
	ScrubReplicas   int
	ScrubCorrupt    int
	ThrottleBps     float64
	Completed       []CompletedFix
	// UptimeSeconds / SecondsSincePoll (-1 = never polled) / PollCount
	// distinguish a stalled control loop from an idle one.
	UptimeSeconds    float64
	SecondsSincePoll float64
	PollCount        int64
}

// RepairNodeState is one machine's failure-detector state.
type RepairNodeState struct {
	Machine int
	State   string // alive | suspect | dead
}

// CompletedFix is one completed repair, in completion order — the
// observable record that priority ordering actually held.
type CompletedFix struct {
	Seq           int
	Kind          string // stripe | replicated
	Stripe        int64
	Block         int64
	Erasures      int
	Bytes         int64
	WaitSeconds   float64
	Unrecoverable bool
}

// RepairStatus fetches the control plane's status from the namenode.
// It errors when the cluster runs without a repair manager.
func (c *Client) RepairStatus() (*RepairStatus, error) {
	resp, err := c.nameCall(&request{Method: methodRepairStatus}, nil)
	if err != nil {
		return nil, err
	}
	st := new(RepairStatus)
	if err := resp.cold(st); err != nil {
		return nil, fmt.Errorf("serve: repair status reply: %w", err)
	}
	return st, nil
}

// CollectTrace assembles one distributed trace: the client's local
// root span plus the spans buffered at the namenode and every
// reachable datanode, filtered to traceID. Daemons that are down (or
// run without telemetry) are skipped — their spans are simply absent,
// which is what a trace of a system with failures looks like. The
// caller builds the tree with telemetry.BuildTree.
func (c *Client) CollectTrace(traceID uint64) ([]telemetry.Span, error) {
	if traceID == 0 {
		return nil, errors.New("serve: trace id 0 names no trace")
	}
	spans := c.spans.Trace(traceID)
	// A daemon that is down, runs without telemetry or answers with
	// something that does not decode contributes no spans.
	add := func(resp *response, err error) {
		var got []telemetry.Span
		if err == nil && resp.cold(&got) == nil {
			spans = append(spans, got...)
		}
	}
	add(c.nameCall(&request{Method: methodDebugTrace, TraceID: traceID}, nil))
	c.mu.Lock()
	addrs := append([]string(nil), c.addrs...)
	c.mu.Unlock()
	for m, addr := range addrs {
		if addr != "" {
			resp, _, err := c.dnCallFull(m, &request{Method: methodDebugTrace, TraceID: traceID}, c.timeout, nil)
			add(resp, err)
		}
	}
	return spans, nil
}

// fileBlocks fetches the file's size and block table.
func (c *Client) fileBlocks(name string) (int64, []wireBlock, error) {
	resp, err := c.nameCall(&request{Method: methodBlocks, Name: name}, nil)
	if err != nil {
		return 0, nil, err
	}
	return resp.Size, resp.Blocks, nil
}

// ReadFile returns the file's contents. It is stripe-aware: every block
// a replica can serve is read first (replicas tried fastest-first), and
// only then are the blocks no replica answered for reconstructed from
// their stripes (degraded read) — with the blocks already in hand lent
// to the codec, so a plan read of a shard this read holds costs nothing
// and only the rest (the parity ranges) crosses the wire. A degraded
// read of a whole stripe thus downloads k blocks, what a healthy one
// does, not k−1 plus a full repair plan drawn from those same blocks.
//
// The result is the only buffer a block's bytes land in: it is allocated
// once, each block owns its slot of it, and a replica's reply or a cache
// hit is read straight into the slot (see readBlock). The slice is the
// caller's from the moment ReadFile returns — nothing this client started
// still writes to it or reads from it (see "Who may write into or borrow
// the result" in the package doc).
func (c *Client) ReadFile(name string) ([]byte, error) {
	size, blocks, err := c.fileBlocks(name)
	if err != nil {
		return nil, err
	}
	// The table is namenode-reported wire data. It sizes the result and
	// cuts it into slots, so it must add up before a byte is allocated or
	// a datanode asked for one; and a block is never empty, so a slot
	// always has bytes to tell a held block from a lost one by.
	if size < 0 || size > maxPayloadBytes {
		return nil, fmt.Errorf("serve: file %s reports size %d out of bounds", name, size)
	}
	var sum int64
	for i := range blocks {
		b := &blocks[i]
		if b.Size <= 0 || b.Size > maxPayloadBytes {
			return nil, fmt.Errorf("serve: file %s block %d reports size %d out of bounds", name, b.ID, b.Size)
		}
		sum += b.Size
	}
	if sum != size {
		return nil, fmt.Errorf("serve: file %s block sizes do not add up to the %d bytes the namenode reports", name, size)
	}
	out := make([]byte, size)
	type lostBlock struct {
		index int
		slot  []byte
	}
	var lost []lostBlock // no replica served these; in block order
	off := int64(0)
	for i := range blocks {
		// The slot's capacity ends where the next block's begins: whatever
		// is read into it cannot run over a neighbour.
		end := off + blocks[i].Size
		slot := out[off:end:end]
		off = end
		switch err := c.readBlock(name, i, blocks, slot, false); {
		case err == errLeftForStripe:
			lost = append(lost, lostBlock{i, slot})
		case err != nil:
			return nil, fmt.Errorf("serve: read %s block %d: %w", name, i, err)
		default:
			blocks[i].held = slot
		}
	}
	// In block order, so a block reconstructed here is itself lent to the
	// next loss in its stripe.
	for _, l := range lost {
		if err := c.readBlock(name, l.index, blocks, l.slot, true); err != nil {
			return nil, fmt.Errorf("serve: read %s block %d: %w", name, l.index, err)
		}
		blocks[l.index].held = l.slot
	}
	c.cReads.Inc()
	return out, nil
}

// errLeftForStripe is readBlock's answer, on ReadFile's first pass, for
// a striped block no replica served: reconstruct it once the rest of
// the file is in hand.
var errLeftForStripe = errors.New("serve: block left for stripe reconstruction")

// lentTo gathers, by stripe position, the blocks of b's stripe that the
// read owning the table already holds: what a reconstruction of b need
// not download. A held block is its slot of ReadFile's result, so the set
// is views of the result, and only work ReadFile waits for may have it as
// such. detached makes each a copy instead — for a hedge arm, which may
// still be decoding from what it was lent after ReadFile has returned and
// the caller has overwritten the result. The set is a snapshot, built per
// reconstruction on ReadFile's own goroutine (so such an arm never reads
// the table while ReadFile fills it), and never on the all-healthy path.
func (c *Client) lentTo(b wireBlock, blocks []wireBlock, detached bool) [][]byte {
	lent := make([][]byte, c.code.TotalShards())
	for i := range blocks {
		if o := &blocks[i]; o.held != nil && o.Stripe == b.Stripe && o.StripePos >= 0 && o.StripePos < len(lent) {
			lent[o.StripePos] = o.held
			if detached {
				lent[o.StripePos] = bytes.Clone(o.held)
			}
		}
	}
	return lent
}

// cacheFill records a successfully read block in the client cache
// (no-op without WithBlockCache). Every fill is a full block keyed by
// its immutable id, so a hit can be returned without consulting
// metadata. The cache copies data in: it is a slot of a result the
// caller is about to own.
func (c *Client) cacheFill(b wireBlock, data []byte) {
	c.blockCache.Put(uint64(b.ID), data)
}

// readBlock reads blocks[index] into slot — its len(slot) == Size bytes
// of ReadFile's result — retrying with refreshed metadata when replicas
// or helpers die mid-flight. On success the slot holds the block; on
// failure its contents are unspecified (a replica that died mid-payload
// leaves it half written) and whatever serves the block next overwrites
// all of it. The block cache is consulted before any RPC; every
// successful read — healthy, hedged, degraded — fills it. ReadFile calls
// it twice at most: with reconstruct false it returns errLeftForStripe in
// place of reconstructing a striped block whose replicas (as the table
// lists them) did not serve it, and with reconstruct true it picks up
// exactly there, the blocks the table holds by then lent to the
// reconstruction.
//
// Who writes the slot: the cache and the plain replica chain read
// straight into it, on this goroutine. A reconstruction and both arms of
// a hedged read produce the block in memory of their own, and it is
// copied in once — the reconstruction because the codec allocates its
// output, the hedge arms because the one that loses the race keeps
// running after ReadFile has returned.
func (c *Client) readBlock(name string, index int, blocks []wireBlock, slot []byte, reconstruct bool) error {
	b := blocks[index]
	if c.blockCache != nil && !reconstruct {
		// A hit of another length than the table's (the namenode's word
		// against an earlier one of its own) is not the block.
		if data, ok := c.blockCache.GetInto(uint64(b.ID), slot); ok && len(data) == len(slot) {
			c.cCacheHits.Inc()
			c.cBlocksRead.Inc()
			return nil
		}
		c.cCacheMisses.Inc()
	}
	var lastErr error
	for attempt := 0; attempt < readAttempts; attempt++ {
		if attempt > 0 {
			// Metadata may be stale: the holder set changed, daemons
			// moved ports, or the block got fixed to a new machine.
			if err := c.refreshAddrs(); err != nil {
				return err
			}
			_, fresh, err := c.fileBlocks(name)
			if err != nil {
				return err
			}
			if index >= len(fresh) {
				return fmt.Errorf("serve: block index %d vanished", index)
			}
			if b = fresh[index]; b.Size != int64(len(slot)) {
				return fmt.Errorf("serve: block %d changed size from %d to %d under the read", b.ID, len(slot), b.Size)
			}
		}

		if attempt > 0 || !reconstruct {
			if c.hedge && b.Stripe >= 0 && len(b.Locations) > 0 {
				// Hedged path: race the replica chain against a delayed
				// stripe reconstruction (see hedge.go). Once the hedge has
				// armed, whichever arm wins carries the bytes and a failure
				// is the whole attempt's.
				data, degraded, armed, err := c.hedgedRead(b, blocks)
				if err == nil {
					copy(slot, data)
					c.cBlocksRead.Inc()
					if degraded {
						c.cDegradedBlocks.Inc()
					}
					c.cacheFill(b, slot)
					return nil
				}
				lastErr = err
				if armed {
					continue
				}
			} else {
				// Healthy path: walk live replicas fastest-first. A replica
				// the datanode refuses on checksum grounds is as gone as
				// one on a dead machine — count it and keep going; the
				// stripe reconstructs around it.
				for _, m := range c.replicaOrder(b.Locations) {
					_, err := c.dnRead(m, b.ID, 0, b.Size, nil, slot)
					if err == nil {
						c.cBlocksRead.Inc()
						c.cacheFill(b, slot)
						return nil
					}
					if isCorruptReplicaErr(err) {
						c.cCorruptReps.Inc()
					}
					lastErr = err
				}
			}
			if attempt == 0 && b.Stripe >= 0 {
				// ReadFile's first pass (attempt 0 comes here only then).
				return errLeftForStripe
			}
		}

		// Degraded path: reconstruct from the stripe. ReadFile waits for
		// it, so it is lent views of the result.
		if b.Stripe >= 0 {
			data, err := c.degradedRead(b, c.lentTo(b, blocks, false))
			if err == nil {
				copy(slot, data)
				c.cBlocksRead.Inc()
				c.cDegradedBlocks.Inc()
				c.cacheFill(b, slot)
				return nil
			}
			lastErr = err
		} else if len(b.Locations) == 0 && lastErr == nil {
			lastErr = fmt.Errorf("serve: block %d has no live replicas and no stripe", b.ID)
		}
	}
	return lastErr
}

// degradedRead reconstructs one striped block: fetch the stripe layout,
// then either drive the partial-sum pipeline (one folded buffer from
// the helper tree) or execute the codec's repair plan, and truncate the
// decoded shard to the block's logical size. A plan read of a position
// in lent (see lentTo; nil lends nothing) is answered from the held
// block, every other one is read over the wire, and phantom positions
// (short tail stripes) decode as zeros without touching the network —
// exactly the access pattern the repair plans charge for.
func (c *Client) degradedRead(b wireBlock, lent [][]byte) ([]byte, error) {
	// Sampling decision: every Nth degraded read mints a trace context
	// that rides every RPC the reconstruction issues, plus a root span
	// recorded locally whose Bytes is the total payload this client
	// downloaded to serve the read.
	var (
		tc         *telemetry.TraceContext
		rootSpan   uint64
		traceStart time.Time
		fetched    atomic.Int64
	)
	if c.sampleEvery > 0 && (c.degradedSeq.Add(1)-1)%c.sampleEvery == 0 {
		rootSpan = telemetry.NewID()
		tc = &telemetry.TraceContext{TraceID: telemetry.NewID(), SpanID: rootSpan, Sampled: true}
		c.lastTrace.Store(tc.TraceID)
		traceStart = time.Now()
	}
	out, err := c.degradedReadTraced(b, lent, tc, &fetched)
	if tc != nil {
		span := telemetry.Span{
			TraceID:       tc.TraceID,
			SpanID:        rootSpan,
			Name:          "degraded_read",
			Process:       "client",
			StartUnixNano: traceStart.UnixNano(),
			DurationNanos: int64(time.Since(traceStart)),
			Bytes:         fetched.Load(),
		}
		if err != nil {
			span.Err = err.Error()
		}
		c.spans.Add(span)
	}
	return out, err
}

func (c *Client) degradedReadTraced(b wireBlock, lent [][]byte, tc *telemetry.TraceContext, fetched *atomic.Int64) ([]byte, error) {
	resp, err := c.nameCall(&request{Method: methodStripe, Stripe: b.Stripe, Trace: tc}, nil)
	if err != nil {
		return nil, err
	}
	st := resp.Stripe
	if st == nil {
		return nil, fmt.Errorf("serve: stripe %d reply missing layout", b.Stripe)
	}
	// The layout comes off the wire; bound the shard size before it sizes
	// any reconstruction buffer (here and in the partial-sum pipeline),
	// and hold the position table to the codec's width before a plan
	// indexes it.
	if st.ShardSize <= 0 || st.ShardSize > maxPayloadBytes || b.Size > st.ShardSize {
		return nil, fmt.Errorf("serve: stripe %d reports shard size %d out of bounds", b.Stripe, st.ShardSize)
	}
	if len(st.Positions) != c.code.TotalShards() {
		return nil, fmt.Errorf("serve: stripe %d lists %d positions, %s has %d", b.Stripe, len(st.Positions), c.code.Name(), c.code.TotalShards())
	}
	held := func(pos int) []byte {
		if pos >= len(lent) || int64(len(lent[pos])) > st.ShardSize {
			return nil
		}
		return lent[pos]
	}
	// The target position is forced erased regardless of the layout's
	// listed holders: the caller only reaches the degraded path after
	// every replica failed to serve — dead daemon, or the datanode
	// refused the stored bytes on checksum grounds. The codec rejects
	// repairing a position whose alive-view says present, and a replica
	// that cannot be read does not count as present. A lent position is
	// present whatever became of its holders: the bytes are here.
	alive := func(pos int) bool {
		if pos < 0 || pos >= len(st.Positions) || pos == b.StripePos {
			return false
		}
		p := st.Positions[pos]
		return p.Block < 0 || len(p.Locations) > 0 || held(pos) != nil
	}
	if c.partialSum {
		if shard, err := c.partialDegradedRead(b, st, alive, tc, fetched); err == nil {
			c.cPartialBlocks.Inc()
			return shard[:b.Size], nil
		}
		// Any pipeline failure (helper died mid-fold, stale addresses,
		// no linear plan, a position only this client holds) falls back
		// to the conventional fan-in below.
	}
	// Helper ranges land in shard-sized buffers of a recycled arena: the
	// codec only reads fetched buffers and returns a shard that aliases
	// none of them (ec.Code.ExecuteRepair), so the arena is released the
	// moment the repair returns, decoded or failed — and a lent block,
	// handed over as a view, is never written.
	arena := fetchArenas.Get().(*engine.Scratch)
	defer func() {
		arena.Reset()
		fetchArenas.Put(arena)
	}()
	fetch := func(req ec.ReadRequest) ([]byte, error) {
		if req.Offset < 0 || req.Length < 0 || req.Offset+req.Length > st.ShardSize {
			return nil, fmt.Errorf("serve: plan read [%d,+%d) exceeds shard size %d", req.Offset, req.Length, st.ShardSize)
		}
		if h := held(req.Shard); h != nil {
			c.cDegradedLent.Add(req.Length)
			if end := req.Offset + req.Length; end <= int64(len(h)) {
				return h[req.Offset:end:end], nil
			}
			// The block is shorter than the shard (a file's last block):
			// the plan reads into its zero padding.
			dst := arena.Bytes(int(req.Length))
			n := 0
			if req.Offset < int64(len(h)) {
				n = copy(dst, h[req.Offset:])
			}
			clear(dst[n:])
			return dst, nil
		}
		p := st.Positions[req.Shard]
		if p.Block < 0 {
			return make([]byte, req.Length), nil
		}
		if len(p.Locations) == 0 {
			return nil, fmt.Errorf("serve: stripe %d position %d has no live holder", b.Stripe, req.Shard)
		}
		var lastErr error
		dst := arena.Bytes(int(st.ShardSize))
		for _, m := range c.replicaOrder(p.Locations) {
			buf, err := c.dnRead(m, p.Block, req.Offset, req.Length, tc, dst)
			if err == nil {
				c.cDegradedBytes.Add(req.Length)
				fetched.Add(req.Length)
				return buf, nil
			}
			lastErr = err
		}
		return nil, lastErr
	}
	shard, err := c.code.ExecuteRepair(b.StripePos, st.ShardSize, alive, fetch)
	if err != nil {
		return nil, err
	}
	return shard[:b.Size], nil
}

// partialDegradedRead reconstructs one striped block in the tree shape:
// ask the codec for the linear plan, pin a live, addressable holder per
// position it reads (replicaOrder over the address table), lay it out as
// the rack-aware fold tree, and ask the root aggregator for its partial
// sum over dn.partial. The reconstructing client's NIC carries one
// block-sized payload instead of the plan's ~k.
func (c *Client) partialDegradedRead(b wireBlock, st *wireStripe, alive ec.AliveFunc, tc *telemetry.TraceContext, fetched *atomic.Int64) ([]byte, error) {
	lp, ok := c.code.(ec.LinearRepairPlanner)
	if !ok {
		return nil, fmt.Errorf("serve: %s has no linear repair plan", c.code.Name())
	}
	c.mu.Lock()
	addrs := append([]string(nil), c.addrs...)
	perRack := c.perRack
	c.mu.Unlock()
	if perRack <= 0 {
		return nil, errors.New("serve: cluster handshake lacks rack geometry")
	}
	plan, err := lp.PlanLinearRepair(b.StripePos, st.ShardSize, alive)
	if err != nil {
		return nil, err
	}
	tree, err := engine.PlanRepairTree(plan, func(pos int) (int, bool, error) {
		p := st.Positions[pos]
		if p.Block < 0 {
			return 0, false, nil
		}
		for _, m := range c.replicaOrder(p.Locations) {
			if m >= 0 && m < len(addrs) && addrs[m] != "" {
				return m, true, nil
			}
		}
		return 0, false, fmt.Errorf("serve: stripe %d position %d has no addressable holder", st.ID, pos)
	}, func(m int) int { return m / perRack })
	if err != nil {
		return nil, err
	}
	return tree.Repair(func(root *engine.AggNode) ([]byte, error) {
		_, out, err := c.dnCallFull(root.Machine, &request{
			Method:  methodDNPartial,
			Length:  tree.TargetSize,
			Partial: wireTree(root, st, addrs),
			Trace:   tc,
		}, partialTimeout(len(tree.Nodes())), nil)
		c.cDegradedBytes.Add(int64(len(out)))
		fetched.Add(int64(len(out)))
		return out, err
	})
}

// wireTree converts a planned aggregation tree into its wire form,
// resolving stripe positions to block ids and machines to daemon
// addresses (every machine in the tree was pinned as addressable).
func wireTree(n *engine.AggNode, st *wireStripe, addrs []string) *wirePartialNode {
	out := &wirePartialNode{Machine: n.Machine, Addr: addrs[n.Machine]}
	for _, t := range n.Terms {
		out.Terms = append(out.Terms, wirePartialTerm{
			Block:     st.Positions[t.Read.Shard].Block,
			Offset:    t.Read.Offset,
			Length:    t.Read.Length,
			TargetOff: t.TargetOff,
			Coeff:     t.Coeff,
		})
	}
	for _, child := range n.Children {
		out.Children = append(out.Children, *wireTree(child, st, addrs))
	}
	return out
}
