// The datanode daemon: one TCP server per storage machine, answering
// replica range reads straight out of that machine's block store. It
// is deliberately dumb — no metadata, no placement — matching the
// production split where datanodes move bytes and the namenode knows
// where they are. Repair-helper reads (the byte ranges a degraded read
// or block fix downloads) arrive here as ordinary dn.read calls with a
// sub-block offset and length.
//
// The one smart thing a datanode does is dn.partial, the helper side of
// a tree-shaped repair: the request carries this node's subtree of the
// plan, and the daemon answers with its partial sum — engine.Fold over
// its own terms' ranges and its children's partial sums, which it
// collects from their daemons in parallel. The requester — the next
// helper up the tree, or the reconstructing client — receives one
// block-sized payload however many helpers fed the subtree.
package serve

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ec"
	"repro/internal/engine"
	"repro/internal/hdfs"
	"repro/internal/telemetry"
)

// DataNode is one machine's serving daemon.
type DataNode struct {
	cluster hdfs.MetadataView
	machine int
	srv     *server
	tele    *nodeTelemetry

	// throttle (nanoseconds) delays every data-path RPC — dn.read and
	// dn.partial — before it touches the store: the injected shape of a
	// slow-but-alive machine (overloaded disk, congested uplink).
	// Heartbeats and pings stay prompt, so a throttled machine is never
	// mistaken for a dead one; only its data service degrades.
	throttle atomic.Int64

	// Partial-sum fold instruments (nil when uninstrumented): folds
	// executed by this daemon and local multiply-accumulate terms
	// applied, the observable cost split of aggregation-tree repair.
	cFolds     *telemetry.Counter
	cFoldTerms *telemetry.Counter

	// Heartbeat sender state (control plane enabled only): hbStop ends
	// the loop, hbWg waits it out on close.
	hbMu   sync.Mutex
	hbStop chan struct{}
	hbWg   sync.WaitGroup
}

// startDataNode launches the daemon for one machine on an ephemeral
// localhost port. tele may be nil.
func startDataNode(cluster hdfs.MetadataView, machine int, tele *nodeTelemetry) (*DataNode, error) {
	d := &DataNode{cluster: cluster, machine: machine, tele: tele}
	if tele != nil && tele.reg != nil {
		d.cFolds = tele.reg.Counter("serve_partial_folds_total")
		d.cFoldTerms = tele.reg.Counter("serve_partial_fold_terms_total")
	}
	// No datanode method takes a request payload.
	srv, err := newServer(d.handle, tele, 0)
	if err != nil {
		return nil, err
	}
	d.srv = srv
	return d, nil
}

// Addr returns the daemon's listen address.
func (d *DataNode) Addr() string { return d.srv.addr() }

// Machine returns the machine index the daemon serves.
func (d *DataNode) Machine() int { return d.machine }

// setThrottle installs (or with 0 clears) the daemon's data-path
// delay.
func (d *DataNode) setThrottle(delay time.Duration) {
	if delay < 0 {
		delay = 0
	}
	d.throttle.Store(int64(delay))
}

// dataDelay sleeps the configured throttle before a data-path RPC is
// served.
func (d *DataNode) dataDelay() {
	if delay := d.throttle.Load(); delay > 0 {
		time.Sleep(time.Duration(delay))
	}
}

func (d *DataNode) handle(req *request, _ []byte, lend *[]byte) (*response, []byte) {
	switch req.Method {
	case methodDNRead:
		d.dataDelay()
		// No legitimate read is longer than a padded block, so that is
		// also all the lent buffer ever has to hold.
		bound := d.maxTargetSize()
		if req.Length > bound {
			return errResponse(fmt.Errorf("serve: read of %d bytes exceeds shard bound %d", req.Length, bound)), nil
		}
		buf, err := d.cluster.NodeReadRangeInto(d.machine, hdfs.BlockID(req.Block), req.Offset, req.Length, lentBytes(lend, bound))
		if err != nil {
			return errResponse(err), nil
		}
		return okResponse(), buf
	case methodDNPing:
		if !d.cluster.MachineAlive(d.machine) {
			return errResponse(fmt.Errorf("serve: datanode %d down", d.machine)), nil
		}
		return okResponse(), nil
	case methodDNPartial:
		d.dataDelay()
		buf, err := d.partial(req, lend)
		if err != nil {
			return errResponse(err), nil
		}
		return okResponse(), buf
	default:
		return errResponse(fmt.Errorf("serve: datanode: unknown method %q", req.Method)), nil
	}
}

// maxTargetSize returns the largest legitimate fold-buffer size: the
// cluster's block bound rounded up to the codec's shard alignment. A
// hostile request declaring anything bigger is rejected before the
// first allocation — without this, a kilobyte-sized frame could make
// every node of a 256-node tree allocate and ship maxPayloadBytes.
func (d *DataNode) maxTargetSize() int64 {
	bs := d.cluster.BlockSize()
	if align := int64(d.cluster.Code().MinShardSize()); align > 1 && bs%align != 0 {
		bs += align - bs%align
	}
	return bs
}

// partial answers one dn.partial call with this node's partial sum of the
// repair: engine.Fold over the on-the-wire transport — ranges out of this
// machine's block store, children's partial sums from their daemons. The
// sum is freshly allocated and owns its memory.
func (d *DataNode) partial(req *request, lend *[]byte) ([]byte, error) {
	if err := validatePartial(req.Partial, req.Length); err != nil {
		return nil, err
	}
	bound := d.maxTargetSize()
	if req.Length > bound {
		return nil, fmt.Errorf("serve: partial target size %d exceeds shard bound %d", req.Length, bound)
	}
	n := req.Partial
	if n.Machine != d.machine {
		return nil, fmt.Errorf("serve: partial tree addressed to machine %d, this is %d", n.Machine, d.machine)
	}
	d.cFolds.Inc()
	d.cFoldTerms.Add(int64(len(n.Terms)))
	// A plan's terms name stripe positions and the wire's name blocks;
	// here a term's shard is the index of the first term naming its
	// block, so ranges of one block coalesce and ranges of two never do.
	terms := make([]ec.LinearTerm, len(n.Terms))
	for i, t := range n.Terms {
		terms[i] = t.linear(slices.IndexFunc(n.Terms, func(o wirePartialTerm) bool { return o.Block == t.Block }))
	}
	// A fold keeps every range it read until the sum is done, so only the
	// first read may have the lent buffer (one padded block); a node that
	// reads a second range (two blocks of the stripe here) allocates it.
	scratch := lentBytes(lend, bound)
	read := func(r ec.ReadRequest) ([]byte, error) {
		dst := scratch
		scratch = nil
		return d.cluster.NodeReadRangeInto(d.machine, hdfs.BlockID(n.Terms[r.Shard].Block), r.Offset, r.Length, dst)
	}
	return engine.Fold(terms, req.Length, read, req.childPartials)
}

// childPartials fetches the partial sum of every child subtree of a
// dn.partial request from its daemon, concurrently.
func (r *request) childPartials() ([][]byte, error) {
	children := r.Partial.Children
	parts := make([][]byte, len(children))
	errs := make([]error, len(children))
	var wg sync.WaitGroup
	for i := range children {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i], errs[i] = fetchChildPartial(&children[i], r.Length, r.Trace)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("serve: partial from machine %d: %w", children[i].Machine, err)
		}
	}
	return parts, nil
}

// fetchChildPartial performs one child-subtree RPC over a fresh
// connection. Partial-sum trees are per-repair, so there is no pooling
// to reuse; a localhost dial is microseconds. The deadline covers the
// child's ENTIRE subtree fold, so it scales with the subtree size
// instead of being a flat per-hop bound — a deep rack chain must not
// time out level by level while every node is healthy.
func fetchChildPartial(child *wirePartialNode, targetSize int64, trace *telemetry.TraceContext) ([]byte, error) {
	timeout := partialTimeout(child.countNodes(maxPartialNodes))
	cn, err := dialConn(child.Addr, timeout)
	if err != nil {
		return nil, err
	}
	defer cn.close()
	// trace carries THIS daemon's span id (the dispatch layer rewrote it
	// before the handler ran), so the child's span parents correctly.
	_, out, err := cn.call(&request{Method: methodDNPartial, Length: targetSize, Partial: child, Trace: trace}, nil, timeout, nil)
	if err != nil {
		return nil, err
	}
	if int64(len(out)) != targetSize {
		return nil, fmt.Errorf("serve: partial buffer has %d bytes, want %d", len(out), targetSize)
	}
	return out, nil
}

// heartbeatTimeout bounds one dn.heartbeat round trip: long enough for
// a briefly busy namenode, short enough that a wedged one does not
// back the sender up past its own death being declared.
const heartbeatTimeout = time.Second

// startHeartbeats launches the daemon's heartbeat loop: one
// dn.heartbeat frame to the namenode immediately and then every
// `every`, on a connection that is redialled after any transport
// failure. Killing the daemon (close) stops the loop — which is
// exactly how the failure detector learns about the death: silence.
func (d *DataNode) startHeartbeats(nameAddr string, every time.Duration) {
	d.hbMu.Lock()
	defer d.hbMu.Unlock()
	if d.hbStop != nil {
		return // already beating
	}
	stop := make(chan struct{})
	d.hbStop = stop
	d.hbWg.Add(1)
	go func() {
		defer d.hbWg.Done()
		var cn *conn
		defer func() {
			if cn != nil {
				cn.close()
			}
		}()
		beat := func() {
			if cn == nil {
				fresh, err := dialConn(nameAddr, heartbeatTimeout)
				if err != nil {
					return // namenode unreachable; retry next tick
				}
				cn = fresh
			}
			req := &request{Method: methodHeartbeat, Machine: d.machine}
			if _, _, err := cn.call(req, nil, heartbeatTimeout, nil); err != nil {
				if _, remote := err.(*RemoteError); !remote {
					cn.close()
					cn = nil
				}
			}
		}
		beat()
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				beat()
			}
		}
	}()
}

// stopHeartbeats ends the heartbeat loop (idempotent).
func (d *DataNode) stopHeartbeats() {
	d.hbMu.Lock()
	stop := d.hbStop
	d.hbStop = nil
	d.hbMu.Unlock()
	if stop != nil {
		close(stop)
		d.hbWg.Wait()
	}
}

// DebugAddr returns the daemon's debug HTTP address ("" when the
// system runs without telemetry HTTP listeners).
func (d *DataNode) DebugAddr() string { return d.tele.debugAddr() }

// close severs the listener and every client connection, and silences
// the heartbeat loop.
func (d *DataNode) close() {
	d.stopHeartbeats()
	d.srv.close()
	d.tele.close()
}
