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
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/crc"
	"repro/internal/ec"
	"repro/internal/engine"
	"repro/internal/hdfs"
	"repro/internal/repairmgr"
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

// isCorruptReplicaErr reports whether a replica read failed because
// the replica's stored bytes failed checksum verification: the
// datanode's, or this client's of a marked whole-block read.
func isCorruptReplicaErr(err error) bool {
	var remote *RemoteError
	return errors.As(err, &remote) && remote.Code == codeCorruptReplica || errors.Is(err, hdfs.ErrCorruptReplica)
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
	CorruptReplicas      int64 // replica reads refused on checksum grounds: by the datanode's check, or by this client's of a marked whole-block read; each is reported
	CacheHits            int64 // block reads served from the client block cache (WithBlockCache)
	CacheMisses          int64 // block reads that consulted the cache and went to the network
	TableHits            int64 // whole-file reads that took the block table from the client block cache and made no "blocks" RPC
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

// WithBlockCache gives the client a SIEVE block cache of n bytes: block
// reads consult it before any RPC and fill it on every successful read
// — healthy, degraded, and partial-sum alike. Keys are block ids, which
// is sound because stored blocks are immutable (rewrites allocate fresh
// ids); n <= 0 leaves caching off.
//
// The same cache, under the same budget and eviction order, keeps the
// block tables of raided files (see keepTable), so a reread whose blocks
// all hit makes no RPC at all. A file is write-once and a block id is
// never reused, so a kept table's ids, sizes and CRC-32s are the
// namenode's for good; only its locations can go stale, and a block
// none of whose listed replicas serves makes the read fetch a fresh
// table, which replaces the kept one.
// CacheHits and CacheMisses count block lookups only; TableHits counts
// the reads a kept table spared a "blocks" RPC.
//
// The cache is one shard. A client's budget is a few MiB, so split in
// sixteen each shard holds a handful of blocks and evicts by its own
// slice of the key space, not by the whole; one shard keeps the whole
// budget under one eviction order, which on the benchmark's Zipf trace
// is four points of hit ratio. A hit holds the shard lock only for a
// map lookup and a bit store, so the client's few workers do not queue
// on it.
func WithBlockCache(n int64) ClientOption {
	return func(c *Client) { c.blockCache = cache.New(n, 1) }
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
	// addrAsked numbers the address-table requests sent; addrsFrom is
	// the number of the one addrs answers (0: the handshake's).
	addrAsked atomic.Uint64
	addrsFrom uint64

	rr atomic.Uint64 // rotation among latency-tied replicas

	// Read-path accelerators: the optional block cache (nil = off) and
	// the always-on per-datanode latency tracker feeding replica
	// ordering.
	blockCache *cache.Cache
	lat        latencyTracker

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
	cTableHits      *telemetry.Counter
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
	c.cTableHits = c.reg.Counter("client_table_hits_total")
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
		TableHits:            c.cTableHits.Value(),
	}
}

// Telemetry exposes the client's metrics registry — the same counters
// Counters() reports, in mergeable snapshot form.
func (c *Client) Telemetry() *telemetry.Registry { return c.reg }

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
// daemon dies (its address empties) or restarts (fresh port). A reply
// to an earlier request than the stored table's is dropped.
func (c *Client) refreshAddrs() error {
	asked := c.addrAsked.Add(1)
	resp, err := c.nameCall(&request{Method: methodInfo}, nil)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if asked > c.addrsFrom {
		c.addrs = resp.DataNodes
		c.perRack = resp.MachinesPerRack
		c.addrsFrom = asked
	}
	c.mu.Unlock()
	return nil
}

// dnCall performs one RPC against the given machine's datanode and
// returns the response payload. Partial-sum calls scale timeout with
// the fold tree's size.
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
func (c *Client) dnCall(machine int, req *request, timeout time.Duration, dst []byte) ([]byte, error) {
	out, addr, err := c.dnCallOnce(machine, req, timeout, dst)
	if err == nil {
		return out, nil
	}
	if _, remote := err.(*RemoteError); remote || !c.relocated(machine, addr) {
		return nil, err
	}
	out, _, err = c.dnCallOnce(machine, req, timeout, dst)
	return out, err
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
func (c *Client) dnCallOnce(machine int, req *request, timeout time.Duration, dst []byte) ([]byte, string, error) {
	c.mu.Lock()
	var addr string
	if machine >= 0 && machine < len(c.addrs) {
		addr = c.addrs[machine]
	}
	cn := c.dns[addr]
	c.mu.Unlock()
	if addr == "" {
		return nil, "", fmt.Errorf("serve: datanode %d has no address (down?)", machine)
	}
	if cn == nil {
		fresh, err := dialConn(addr, timeout)
		if err != nil {
			return nil, addr, err
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
	_, out, err := cn.call(req, nil, timeout, dst)
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
		return nil, addr, err
	}
	c.lat.observe(machine, time.Since(start))
	return out, addr, nil
}

// dnRead fetches one byte range of one block from a machine, into dst
// when it is non-nil and holds the range.
//
// A datanode answers a range with exactly its length (zero-padded past
// the block's end), so a reply of any other length is a failed replica:
// callers move on to the next one, and nothing of the wrong size is ever
// kept as a file's bytes, lent, cached or handed to the decoder. A
// successful read therefore landed in dst whenever dst could hold the
// range; a failed one may have written any part of dst, never past its
// capacity.
func (c *Client) dnRead(machine int, block, offset, length int64, dst []byte) ([]byte, error) {
	req := &request{Method: methodDNRead, Block: block, Offset: offset, Length: length}
	out, err := c.dnCall(machine, req, c.timeout, dst)
	if err == nil && int64(len(out)) != length {
		return nil, fmt.Errorf("serve: datanode %d answered [%d,+%d) of block %d with %d bytes", machine, offset, length, block, len(out))
	}
	return out, err
}

// readReplica reads block b whole from machine m into slot. A block
// larger than sendMinBytes is asked for marked "the caller checks the
// block's CRC-32" (request.CallerChecks), and this client checks every
// reply to such a read against the CRC-32 the namenode keeps for the
// block: a datanode that can sends the replica straight from its
// segment file, unread and unchecked, and a mismatch is a corrupt
// replica, as a datanode's own refusal is. An unmarked read's reply
// was checked by the datanode before it left.
func (c *Client) readReplica(m int, b wireBlock, slot []byte) error {
	marked := b.Size > sendMinBytes
	out, err := c.dnCall(m, &request{Method: methodDNRead, Block: b.ID, Length: b.Size, CallerChecks: marked}, c.timeout, slot)
	switch {
	case err != nil:
		return err
	case int64(len(out)) != b.Size:
		return fmt.Errorf("serve: datanode %d answered block %d with %d bytes, want %d", m, b.ID, len(out), b.Size)
	case marked && crc.Checksum(out) != b.Checksum:
		return fmt.Errorf("%w: block %d as datanode %d sent it does not match its CRC-32", hdfs.ErrCorruptReplica, b.ID, m)
	}
	return nil
}

// reportReplica tells the namenode that machine's replica of block
// failed its checksum at this reader ("replica.report"), so that the
// namenode verifies it and, if its own read fails too, evicts it for
// the repair manager to rebuild. The report's outcome is not the read's
// business: the read goes on around the replica either way, and if the
// report is lost the next reader that meets the rot reports it again.
func (c *Client) reportReplica(block int64, machine int) {
	_, _ = c.nameCall(&request{Method: methodReportReplica, Block: block, Machine: machine}, nil)
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

// RunBlockFixer asks the namenode's repair manager to repair now: one
// full fixer pass over every lost block, grace window or not
// (repairmgr.Manager.RepairNow).
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

// RepairStatus fetches the repair manager's status from the namenode:
// queue depth, per-node detector states, grace-window accounting, and
// the completion log that makes priority ordering externally
// observable.
//
//repolint:ignore deadexport the wire seam for ExampleClient_RepairStatus, TestManagedPriorityOrderingViaStatusRPC, TestAutonomousRepairRetriesAfterAFailedStore and TestMetricsScrapeCycle
func (c *Client) RepairStatus() (*repairmgr.Status, error) {
	resp, err := c.nameCall(&request{Method: methodRepairStatus}, nil)
	if err != nil {
		return nil, err
	}
	st := new(repairmgr.Status)
	if err := resp.cold(st); err != nil {
		return nil, fmt.Errorf("serve: repair status reply: %w", err)
	}
	return st, nil
}

// fileTable is the block table one ReadFile reads by. kept says it came
// from the client cache and the namenode has not been asked for it in
// this read.
type fileTable struct {
	name   string
	size   int64
	blocks []wireBlock
	kept   bool
}

// fileBlocks asks the namenode for the file's size and block table and
// checks it. The table is namenode-reported wire data. It sizes the
// result and cuts it into slots, so it must add up before a byte is
// allocated or a datanode asked for one; and a block is never empty, so
// a slot always has bytes to tell a held block from a lost one by.
func (c *Client) fileBlocks(name string) (int64, []wireBlock, error) {
	resp, err := c.nameCall(&request{Method: methodBlocks, Name: name}, nil)
	if err != nil {
		return 0, nil, err
	}
	size, blocks := resp.Size, resp.Blocks
	if size < 0 || size > maxPayloadBytes {
		return 0, nil, fmt.Errorf("serve: file %s reports size %d out of bounds", name, size)
	}
	var sum int64
	for i := range blocks {
		b := &blocks[i]
		if b.Size <= 0 || b.Size > maxPayloadBytes {
			return 0, nil, fmt.Errorf("serve: file %s block %d reports size %d out of bounds", name, b.ID, b.Size)
		}
		sum += b.Size
	}
	if sum != size {
		return 0, nil, fmt.Errorf("serve: file %s block sizes do not add up to the %d bytes the namenode reports", name, size)
	}
	return size, blocks, nil
}

// tableKey is the cache key of the file's block table: FNV-1a of the
// name with the top bit set. Block ids are non-negative, so no table key
// is ever a block's.
func tableKey(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return 1<<63 | h
}

// keptTableBytes sizes the stack buffer a kept table is read into: a
// few blocks' table fits, a larger one is read into the heap.
const keptTableBytes = 256

// keepTable caches a table the namenode just gave, if it may be kept,
// and otherwise drops whatever the cache holds for the file. Only a
// raided file's table is kept, and only while every block lists a live
// holder: an unraided file's locations change when it is raided, and
// each of its reads must reach the namenode, whose last-access time
// drives the cold-raid policy; a block with no holder is what a repair
// changes, and keeping it would hold a repaired file on the degraded
// path. The value is the name, which rejects a hash collision, then the
// table as the header codec writes a "blocks" reply.
func (c *Client) keepTable(name string, size int64, blocks []wireBlock) {
	if c.blockCache == nil {
		return
	}
	keep := len(blocks) > 0
	for i := range blocks {
		keep = keep && blocks[i].Stripe >= 0 && len(blocks[i].Locations) > 0
	}
	if !keep {
		c.blockCache.Delete(tableKey(name))
		return
	}
	var buf [keptTableBytes]byte
	v := appendString(buf[:0], name)
	v = (&response{Size: size, Blocks: blocks}).appendHeader(put(v, headerVersion))
	c.blockCache.Put(tableKey(name), v)
}

// keptTable returns the file's table from the client cache, if it holds
// one.
func (c *Client) keptTable(name string) (int64, []wireBlock, bool) {
	var buf [keptTableBytes]byte
	v, ok := c.blockCache.GetInto(tableKey(name), buf[:0])
	if !ok {
		return 0, nil, false
	}
	d := decoder{b: v}
	if kept := d.bytes(); d.err != nil || string(kept) != name {
		return 0, nil, false
	}
	var resp response
	if resp.decodeHeader(d.b) != nil {
		return 0, nil, false
	}
	return resp.Size, resp.Blocks, true
}

// refetch replaces the read's table by the namenode's current one and
// keeps that, as keepTable allows. The blocks already in their slots
// stay held: ids and sizes never change, only locations do.
func (c *Client) refetch(t *fileTable) error {
	size, fresh, err := c.fileBlocks(t.name)
	if err != nil {
		return err
	}
	if size != t.size || len(fresh) != len(t.blocks) {
		return fmt.Errorf("serve: file %s changed its block table under the read", t.name)
	}
	for i := range fresh {
		if fresh[i].Size != t.blocks[i].Size {
			return fmt.Errorf("serve: block %d changed size from %d to %d under the read", fresh[i].ID, t.blocks[i].Size, fresh[i].Size)
		}
		fresh[i].held = t.blocks[i].held
	}
	c.keepTable(t.name, size, fresh)
	t.blocks, t.kept = fresh, false
	return nil
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
// With WithBlockCache, a raided file's block table comes from the cache
// when it holds one, and a reread whose blocks all hit makes no RPC.
//
// The result is the only buffer a block's bytes land in: it is allocated
// unzeroed, each byte written once, each block owns its slot of it, and
// a replica's reply or a cache hit is read straight into the slot (see
// readBlock). A slot is written in full before it is held, lent, cached
// or returned, and on any error the result is dropped unread, so no byte
// the memory held before is ever seen. The slice is the caller's from
// the moment ReadFile returns — nothing this client started still writes
// to it or reads from it (see "Who may write into or borrow the result"
// in the package doc).
func (c *Client) ReadFile(name string) ([]byte, error) {
	t := fileTable{name: name}
	if t.size, t.blocks, t.kept = c.keptTable(name); !t.kept {
		var err error
		if t.size, t.blocks, err = c.fileBlocks(name); err != nil {
			return nil, err
		}
		c.keepTable(name, t.size, t.blocks)
	}
	out := uninitBytes(int(t.size))
	type lostBlock struct {
		index int
		slot  []byte
	}
	var lost []lostBlock // no replica served these; in block order
	off := int64(0)
	for i := range t.blocks {
		// The slot's capacity ends where the next block's begins: whatever
		// is read into it cannot run over a neighbour.
		end := off + t.blocks[i].Size
		slot := out[off:end:end]
		off = end
		switch err := c.readBlock(&t, i, slot, false); {
		case err == errLeftForStripe:
			lost = append(lost, lostBlock{i, slot})
		case err != nil:
			return nil, fmt.Errorf("serve: read %s block %d: %w", name, i, err)
		default:
			t.blocks[i].held = slot
		}
	}
	// In block order, so a block reconstructed here is itself lent to the
	// next loss in its stripe.
	for _, l := range lost {
		if err := c.readBlock(&t, l.index, l.slot, true); err != nil {
			return nil, fmt.Errorf("serve: read %s block %d: %w", name, l.index, err)
		}
		t.blocks[l.index].held = l.slot
	}
	if t.kept {
		c.cTableHits.Inc()
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
// is views of the result, lent only to the reconstruction ReadFile runs
// and waits for. It is built per reconstruction, and never on the
// all-healthy path.
func (c *Client) lentTo(b wireBlock, blocks []wireBlock) [][]byte {
	lent := make([][]byte, c.code.TotalShards())
	for i := range blocks {
		if o := &blocks[i]; o.held != nil && o.Stripe == b.Stripe && o.StripePos >= 0 && o.StripePos < len(lent) {
			lent[o.StripePos] = o.held
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

// readBlock reads t.blocks[index] into slot — its len(slot) == Size
// bytes of ReadFile's result — retrying with a refreshed table when
// replicas or helpers die mid-flight. On success the slot holds the
// block; on failure its contents are unspecified (a replica that died
// mid-payload leaves it half written) and whatever serves the block next
// overwrites all of it. The block cache is consulted before any RPC;
// every successful read, healthy or degraded, fills it. ReadFile calls
// it twice at most: with reconstruct false it returns errLeftForStripe
// in place of reconstructing a striped block whose replicas (as the
// table lists them) did not serve it, and with reconstruct true it picks
// up exactly there, the blocks the table holds by then lent to the
// reconstruction.
//
// A kept table (see keepTable) may list stale locations: when none of a
// block's listed replicas serves, the read fetches a fresh table once
// (refetch, which replaces or drops the kept one) and walks the fresh
// replicas before it leaves the block for its stripe.
//
// Who writes the slot: the cache and the replica chain read straight
// into it, and a reconstruction's block is copied in once (the codec
// allocates its output). All of it runs on ReadFile's goroutine.
func (c *Client) readBlock(t *fileTable, index int, slot []byte, reconstruct bool) error {
	b := t.blocks[index]
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
	var asked uint64 // address-table requests sent before the attempt began
	for attempt := 0; attempt < readAttempts; attempt++ {
		if attempt > 0 {
			// Metadata may be stale: the holder set changed, daemons
			// moved ports, or the block got fixed to a new machine. The
			// addresses are re-fetched unless the stored table was asked
			// for during the attempt: by a transport failure's refresh
			// (see relocated), or by another reader's, which stands for
			// this one too.
			c.mu.Lock()
			stale := c.addrsFrom <= asked
			c.mu.Unlock()
			if stale {
				if err := c.refreshAddrs(); err != nil {
					return err
				}
			}
			if err := c.refetch(t); err != nil {
				return err
			}
			b = t.blocks[index]
		}
		asked = c.addrAsked.Load()

		if attempt > 0 || !reconstruct {
			// Walk live replicas fastest-first. A replica refused on
			// checksum grounds is as gone as one on a dead machine —
			// count it, report it, and keep going; the stripe
			// reconstructs around it.
			for _, m := range c.replicaOrder(b.Locations) {
				err := c.readReplica(m, b, slot)
				if err == nil {
					c.cBlocksRead.Inc()
					c.cacheFill(b, slot)
					return nil
				}
				if isCorruptReplicaErr(err) {
					c.cCorruptReps.Inc()
					c.reportReplica(b.ID, m)
				}
				lastErr = err
			}
			if t.kept {
				continue // the next attempt fetches a fresh table
			}
			if !reconstruct && b.Stripe >= 0 {
				return errLeftForStripe
			}
		}

		// Degraded path: reconstruct from the stripe, lent views of the
		// result.
		if b.Stripe >= 0 {
			data, err := c.degradedRead(b, c.lentTo(b, t.blocks))
			if err == nil && crc.Checksum(data) != b.Checksum {
				// A helper served rot its store could not detect. The
				// stripe gives the same bytes again, so no retry.
				return fmt.Errorf("serve: block %d rebuilt from its stripe does not match its CRC-32", b.ID)
			}
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
	resp, err := c.nameCall(&request{Method: methodStripe, Stripe: b.Stripe}, nil)
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
		if shard, err := c.partialDegradedRead(b, st, alive); err == nil {
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
		// A helper none of whose replicas served, one of them refused on
		// checksum grounds (and reported), is erased: the decode runs
		// again without it.
		var lastErr, rot error
		dst := arena.Bytes(int(st.ShardSize))
		for _, m := range c.replicaOrder(p.Locations) {
			buf, err := c.dnRead(m, p.Block, req.Offset, req.Length, dst)
			if err == nil {
				c.cDegradedBytes.Add(req.Length)
				return buf, nil
			}
			if isCorruptReplicaErr(err) {
				c.cCorruptReps.Inc()
				c.reportReplica(p.Block, m)
				rot = err
			}
			lastErr = err
		}
		if rot != nil {
			return nil, rot
		}
		return nil, lastErr
	}
	shard, err := engine.DecodeAroundRot(alive, fetch, isCorruptReplicaErr, arena, func(alive ec.AliveFunc, fetch ec.FetchFunc) ([]byte, error) {
		return c.code.ExecuteRepair(b.StripePos, st.ShardSize, alive, fetch)
	})
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
func (c *Client) partialDegradedRead(b wireBlock, st *wireStripe, alive ec.AliveFunc) ([]byte, error) {
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
		out, err := c.dnCall(root.Machine, &request{
			Method:  methodDNPartial,
			Length:  tree.TargetSize,
			Partial: wireTree(root, st, addrs),
		}, partialTimeout(len(tree.Nodes())), nil)
		c.cDegradedBytes.Add(int64(len(out)))
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
