// Package serve is the networked serving layer of the miniature DFS: a
// namenode daemon (file → block → stripe metadata, placement, failure
// control, block-fixer driver) and one datanode daemon per machine
// (replica range reads, partial-sum folds), all speaking a small framed
// RPC protocol over real TCP on localhost, plus a concurrent Client
// whose read path transparently falls back to degraded reads —
// reconstructing missing blocks through the codec's repair plan, with
// only the helper ranges it does not already hold fetched over the
// wire.
//
// The in-memory hdfs.Cluster remains the source of truth for metadata
// and block bytes; this package puts a real network between it and its
// clients, so "degraded reads under load" stop being simulated flows
// and become client-visible latency.
//
// # Wire protocol
//
// Every RPC is one request frame followed by one response frame on a
// persistent TCP connection (requests on a connection are serialised,
// clients pool one connection per server):
//
//	uint32 header length (big endian)
//	uint32 payload length (big endian)
//	header: JSON (request or response)
//	payload: raw bytes (block data; empty for most methods)
//
// The namenode answers metadata methods ("info", "stat", "blocks",
// "stripe"), mutations ("write", "raid", "fixer"), failure control
// ("fail", "restore"), the datanodes' "dn.heartbeat" and the repair
// control plane's "repair.status". Datanodes answer "dn.read" (a
// replica range), "dn.ping", and "dn.partial" (fold this node's repair
// ranges and its children's partial sums into one block-sized buffer).
// Every daemon answers "debug.trace". Errors travel as a string in the
// response header; the payload always carries data, never errors.
//
// # Degraded reads and lent blocks
//
// Client.ReadFile downloads each stripe once. It reads every block a
// replica can serve, then reconstructs the rest, and what it holds is
// lent to those reconstructions: the fetch callback the codec's
// ExecuteRepair runs its plan through (one builder, in
// degradedReadTraced, shared with the hedge arm) answers a read of a
// held shard with a view of the held block (its slot of the result; see
// the next section) — a zero-padded copy in the fetch arena only where
// the block is shorter than the shard — and goes to a datanode for the
// rest. A lent position counts as alive; a block reconstructed earlier
// in the read is lent to later ones of its stripe; nothing is lent
// across stripes. The codec, its plan and the
// plan's cost are untouched: lending only decides which of the plan's
// bytes cross the wire (Counters.DegradedBytesFetched) and which do not
// (Counters.DegradedBytesLent), so a whole-stripe read that lost one
// data block downloads k blocks, as a healthy read does.
//
// # Who may write into or borrow the result
//
// ReadFile checks the namenode's block table first (every size in
// bounds, the sizes adding up to the file's), allocates the result once,
// and gives each block its slot of it: a slice whose capacity ends where
// the next block's begins. A replica's reply and a client-cache hit are
// read straight into the slot — there is no per-block buffer and no
// assembly copy — and a held block is that slot, so what is lent to a
// reconstruction is views of the result. A slot is lent only once its
// block is whole (the reply passed the length check); a replica that
// fails mid-payload leaves it half written, unlent, for the next replica
// or the reconstruction to overwrite in full, and no reply of any length
// can write past it.
//
// One rule keeps that safe: only work ReadFile waits for may write into
// the result or be lent views of it. The plain replica chain and the
// second-pass reconstruction run on ReadFile's goroutine and qualify.
// The two arms of a hedged read do not — either can outlive the read:
// the primary keeps reading after the hedge wins, the hedge keeps
// decoding after the primary wins — so each reads into memory of its
// own, the hedge is lent copies made when it arms, and the winner's
// bytes are copied into the slot. The client cache copies in and out
// (cache.Put owns its bytes), so a caller scribbling on the result
// cannot poison it. When ReadFile returns, the slice is the caller's
// alone.
//
// WithPartialSumRepair still goes first when set. Its fold tree hands
// the client one folded shard, which is also all a lent reconstruction
// fetches for a single loss, so lending saves that client nothing; the
// tree is for the client that holds none of the stripe, and any
// failure in it (including a position only this client still holds)
// falls back to the lent fan-in.
package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/telemetry"
)

// Frame size sanity bounds: a header is small JSON; a payload is at
// most one file write (kilobytes to megabytes in tests and the
// benchmark).
const (
	maxHeaderBytes  = 1 << 20
	maxPayloadBytes = 1 << 30
)

// Namenode RPC method names.
const (
	methodInfo    = "info"
	methodStat    = "stat"
	methodBlocks  = "blocks"
	methodStripe  = "stripe"
	methodWrite   = "write"
	methodRaid    = "raid"
	methodFixer   = "fixer"
	methodFail    = "fail"
	methodRestore = "restore"
	// methodHeartbeat is sent BY datanode daemons TO the namenode on a
	// timer; the repair manager's failure detector consumes it.
	// methodRepairStatus returns the control plane's status snapshot.
	methodHeartbeat    = "dn.heartbeat"
	methodRepairStatus = "repair.status"
	// methodDebugTrace is answered generically by EVERY daemon (namenode
	// and datanodes alike): it dumps the process's buffered trace spans,
	// optionally filtered to one trace id. Errors when the system runs
	// without telemetry.
	methodDebugTrace = "debug.trace"
)

// Datanode RPC method names.
const (
	methodDNRead    = "dn.read"
	methodDNPing    = "dn.ping"
	methodDNPartial = "dn.partial"
)

// maxPartialNodes bounds the node count of one partial-sum tree: trees
// are at most one node per stripe position, so anything larger is
// corrupt or hostile. Keeps a recursive dn.partial from walking an
// attacker-sized structure.
const maxPartialNodes = 256

// request is the header of one RPC call. One flat struct covers every
// method; unused fields stay at their zero value and are omitted from
// the JSON.
type request struct {
	Method  string `json:"method"`
	Name    string `json:"name,omitempty"`
	Block   int64  `json:"block,omitempty"`
	Offset  int64  `json:"offset,omitempty"`
	Length  int64  `json:"length,omitempty"`
	Machine int    `json:"machine,omitempty"`
	Stripe  int64  `json:"stripe,omitempty"`

	// Partial is the dn.partial fold tree rooted at the addressed
	// datanode; Length carries the target (folded buffer) size.
	Partial *wirePartialNode `json:"partial,omitempty"`

	// Trace is the optional trace context of a sampled operation. The
	// SpanID it carries is the CALLER's span: a daemon minting a span
	// for the request uses it as the parent, then rewrites the field so
	// downstream calls made while handling (dn.partial child fetches)
	// parent correctly.
	Trace *telemetry.TraceContext `json:"trace,omitempty"`
	// TraceID filters a debug.trace dump to one trace (0 = everything).
	TraceID uint64 `json:"trace_id,omitempty"`
}

// wirePartialTerm is one local multiply-accumulate of a partial-sum
// fold: read [off, off+len) of the block, scale by the GF(2^8)
// coefficient, XOR into the partial buffer at target_off.
type wirePartialTerm struct {
	Block     int64 `json:"block"`
	Offset    int64 `json:"offset"`
	Length    int64 `json:"length"`
	TargetOff int64 `json:"target_off"`
	Coeff     byte  `json:"coeff"`
}

// wirePartialNode is one helper of a partial-sum fold tree: the
// datanode applies its terms locally, recursively collects each child's
// folded buffer from the child's daemon at addr, XORs everything, and
// returns one target-sized payload — so each tree edge carries exactly
// one buffer instead of the node's raw reads.
type wirePartialNode struct {
	Machine  int               `json:"machine"`
	Addr     string            `json:"addr,omitempty"` // filled for children; the addressed node ignores its own
	Terms    []wirePartialTerm `json:"terms,omitempty"`
	Children []wirePartialNode `json:"children,omitempty"`
}

// countNodes returns the tree's node count, capped at limit+1 so
// hostile structures stop early.
func (n *wirePartialNode) countNodes(limit int) int {
	count := 1
	for i := range n.Children {
		if count > limit {
			return count
		}
		count += n.Children[i].countNodes(limit - count)
	}
	return count
}

// validatePartial checks one partial-sum request's structural bounds
// before any I/O: a sane target size, a bounded tree, and every term
// folding inside the target.
func validatePartial(root *wirePartialNode, targetSize int64) error {
	if root == nil {
		return errors.New("serve: partial request missing tree")
	}
	if targetSize <= 0 || targetSize > maxPayloadBytes {
		return fmt.Errorf("serve: partial target size %d out of bounds", targetSize)
	}
	if n := root.countNodes(maxPartialNodes); n > maxPartialNodes {
		return fmt.Errorf("serve: partial tree exceeds %d nodes", maxPartialNodes)
	}
	var walk func(n *wirePartialNode) error
	walk = func(n *wirePartialNode) error {
		for _, t := range n.Terms {
			if t.Length <= 0 || t.Offset < 0 {
				return fmt.Errorf("serve: partial term reads [%d, %d+%d)", t.Offset, t.Offset, t.Length)
			}
			// Overflow-safe: TargetOff+Length can wrap int64 on hostile
			// input, so compare against targetSize-Length instead.
			if t.Length > targetSize || t.TargetOff < 0 || t.TargetOff > targetSize-t.Length {
				return fmt.Errorf("serve: partial term folds [%d, +%d) outside %d-byte target", t.TargetOff, t.Length, targetSize)
			}
		}
		for i := range n.Children {
			if n.Children[i].Addr == "" {
				return errors.New("serve: partial child missing address")
			}
			if err := walk(&n.Children[i]); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(root)
}

// response is the header of one RPC reply.
type response struct {
	OK  bool   `json:"ok"`
	Err string `json:"err,omitempty"`

	Size            int64             `json:"size,omitempty"`
	Raided          bool              `json:"raided,omitempty"`
	Blocks          []wireBlock       `json:"blocks,omitempty"`
	Stripe          *wireStripe       `json:"stripe,omitempty"`
	Codec           string            `json:"codec,omitempty"`
	BlockSize       int64             `json:"block_size,omitempty"`
	DataNodes       []string          `json:"datanodes,omitempty"`
	MachinesPerRack int               `json:"machines_per_rack,omitempty"`
	Fix             *wireFixReport    `json:"fix,omitempty"`
	Repair          *wireRepairStatus `json:"repair,omitempty"`
	// Spans answers debug.trace: the daemon's buffered spans (the
	// telemetry.Span JSON encoding is the wire form).
	Spans []telemetry.Span `json:"spans,omitempty"`
}

// wireRepairStatus is the repair control plane's status snapshot —
// queue depth, per-node detector states, throttle and grace-window
// accounting, and the completion log that makes priority ordering
// externally observable.
type wireRepairStatus struct {
	Nodes           []wireNodeState    `json:"nodes"`
	QueueDepth      int                `json:"queue_depth"`
	QueueByErasures []wireTierDepth    `json:"queue_by_erasures,omitempty"`
	Paused          bool               `json:"paused,omitempty"`
	DegradedStripes int                `json:"degraded_stripes,omitempty"`
	DegradedBlocks  int                `json:"degraded_blocks,omitempty"`
	RepairsDone     int                `json:"repairs_done"`
	RepairedBytes   int64              `json:"repaired_bytes"`
	Unrecoverable   int                `json:"unrecoverable,omitempty"`
	AvoidedRepairs  int                `json:"avoided_repairs"`
	AvoidedBytes    int64              `json:"avoided_bytes"`
	LostBlocks      int                `json:"lost_blocks,omitempty"`
	ScrubSlices     int                `json:"scrub_slices,omitempty"`
	ScrubReplicas   int                `json:"scrub_replicas,omitempty"`
	ScrubCorrupt    int                `json:"scrub_corrupt,omitempty"`
	ThrottleBps     float64            `json:"throttle_bytes_per_sec,omitempty"`
	Completed       []wireCompletedFix `json:"completed,omitempty"`

	// UptimeSeconds is how long the manager has existed;
	// SecondsSincePoll how long ago the last Poll iteration ran (-1:
	// never polled). Together they distinguish a stalled poll loop from
	// an idle one. PollCount counts completed iterations.
	UptimeSeconds    float64 `json:"uptime_seconds"`
	SecondsSincePoll float64 `json:"seconds_since_poll"`
	PollCount        int64   `json:"poll_count,omitempty"`
}

// wireNodeState is one machine's failure-detector state.
type wireNodeState struct {
	Machine int    `json:"machine"`
	State   string `json:"state"` // alive | suspect | dead
}

// wireTierDepth is the queue depth at one erasure tier.
type wireTierDepth struct {
	Erasures int `json:"erasures"`
	Count    int `json:"count"`
}

// wireCompletedFix is one completed repair, in completion order.
type wireCompletedFix struct {
	Seq           int     `json:"seq"`
	Kind          string  `json:"kind"` // stripe | replicated
	Stripe        int64   `json:"stripe,omitempty"`
	Block         int64   `json:"block,omitempty"`
	Erasures      int     `json:"erasures"`
	Bytes         int64   `json:"bytes"`
	WaitSeconds   float64 `json:"wait_seconds"`
	Unrecoverable bool    `json:"unrecoverable,omitempty"`
}

// wireBlock is one block's client-visible metadata.
type wireBlock struct {
	ID        int64 `json:"id"`
	Size      int64 `json:"size"`
	Stripe    int64 `json:"stripe"` // -1 when unstriped
	StripePos int   `json:"stripe_pos"`
	Locations []int `json:"locations,omitempty"`

	// held never crosses the wire (encoding/json skips unexported
	// fields): once a client's ReadFile has the block's bytes it is the
	// block's slot of that read's result — a view, kept in the table the
	// read already owns so that holding a block costs the all-healthy
	// path nothing. See Client.lentTo.
	held []byte
}

// wireStripe is one stripe's client-visible layout, enough for a
// client to plan and execute a degraded read.
type wireStripe struct {
	ID        int64     `json:"id"`
	ShardSize int64     `json:"shard_size"`
	Positions []wirePos `json:"positions"`
}

// wirePos is one stripe position: block id (-1 for a phantom zero
// block), logical size, and live holders.
type wirePos struct {
	Block     int64 `json:"block"`
	Size      int64 `json:"size"`
	Locations []int `json:"locations,omitempty"`
}

// wireFixReport is the summary of one block-fixer pass.
type wireFixReport struct {
	ScannedBlocks   int `json:"scanned_blocks"`
	RepairedStriped int `json:"repaired_striped"`
	ReReplicated    int `json:"re_replicated"`
	Unrecoverable   int `json:"unrecoverable"`
}

// RemoteError is an error reported by the far side of an RPC, as
// opposed to a transport failure. The client treats transport failures
// as "try another replica / refresh metadata"; remote errors are
// definitive answers.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return e.Msg }

// errFrameTooLarge guards against corrupt or hostile frame lengths.
var errFrameTooLarge = errors.New("serve: frame exceeds size bound")

// writeFrame marshals hdr and writes one length-prefixed frame.
func writeFrame(w io.Writer, hdr any, payload []byte) error {
	hb, err := json.Marshal(hdr)
	if err != nil {
		return err
	}
	if len(hb) > maxHeaderBytes || len(payload) > maxPayloadBytes {
		return errFrameTooLarge
	}
	var pre [8]byte
	binary.BigEndian.PutUint32(pre[0:4], uint32(len(hb)))
	binary.BigEndian.PutUint32(pre[4:8], uint32(len(payload)))
	if _, err := w.Write(pre[:]); err != nil {
		return err
	}
	if _, err := w.Write(hb); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one frame, unmarshalling the header into hdr and
// returning the payload — read into dst when its capacity holds it (the
// result is then dst[:n], the caller's to recycle), into a fresh buffer
// otherwise.
func readFrame(r io.Reader, hdr any, dst []byte) ([]byte, error) {
	var pre [8]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return nil, err
	}
	hlen := binary.BigEndian.Uint32(pre[0:4])
	plen := binary.BigEndian.Uint32(pre[4:8])
	if hlen > maxHeaderBytes || plen > maxPayloadBytes {
		return nil, errFrameTooLarge
	}
	hb := make([]byte, hlen)
	if _, err := io.ReadFull(r, hb); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(hb, hdr); err != nil {
		return nil, fmt.Errorf("serve: bad frame header: %w", err)
	}
	if plen == 0 {
		return nil, nil
	}
	if cap(dst) < int(plen) {
		dst = make([]byte, plen)
	}
	payload := dst[:plen]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// okResponse and errResponse build reply headers.
func okResponse() *response { return &response{OK: true} }

func errResponse(err error) *response { return &response{Err: err.Error()} }
