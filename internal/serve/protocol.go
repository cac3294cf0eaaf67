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
//	header: version byte 0x01, then tagged fields (below)
//	payload: raw bytes (block data; empty for most methods)
//
// A frame leaves in one write — prefix and header built in a pooled
// buffer, the payload passed to the socket by reference beside them
// (writeFrame) — and a reply carrying a block of up to 4 KiB arrives in
// one read. Neither end sizes anything by a length it has only been
// told: a payload no buffer was lent for is read into one that grows as
// the bytes arrive (readPayload), a datanode, which takes no request
// payload, hangs up on a prefix declaring one, and every count inside a
// header is held to the bytes left in it.
//
// There is one header encoding, for the request and the response of
// every method (codec.go). After the version byte it is a run of
// fields, each a one-byte key — field number<<1 | kind — and a value:
// kind 0 a zigzag varint, kind 1 a uvarint length and that many bytes.
// A field at its zero value is not sent.
//
//	 #  field            kind    value
//	 1  method           varint  the method's id (methodNames)
//	 2  name             bytes   file name
//	 3  block            varint  block id
//	 4  offset           varint
//	 5  length           varint  read length; dn.partial: the fold buffer's size
//	 6  machine          varint
//	 7  stripe           varint  stripe id
//	 8  partial          bytes   dn.partial fold tree, node by node: machine,
//	                             address, term count, terms (block, offset,
//	                             length, target offset, coefficient byte),
//	                             child count, children
//	 9  trace            bytes   trace id, span id (uvarints), sampled byte
//	10  trace id         varint  debug.trace filter
//	16  ok               varint  1
//	17  err              bytes   error text
//	18  err code         varint  what kind of error (errCode)
//	19  size             varint  file size
//	20  raided           varint  1
//	21  blocks           bytes   count, then per block: id, size, stripe,
//	                             position, location count, locations
//	22  stripe layout    bytes   id, shard size, position count, then per
//	                             position: block, size, location count, locations
//	23  codec            bytes   handshake: codec name
//	24  block size       varint  handshake
//	25  datanodes        bytes   handshake: count, then each address
//	26  machines/rack    varint  handshake
//	27  cold             bytes   opaque body of a cold reply (below)
//
// A decoder steps over a field whose number it does not know — the kind
// bit says how — so a field can be added (a request id, when one
// connection comes to carry several calls) without a second format; a
// method id it has no name for reaches the handler as "#<id>", a name
// no handler has, and is answered "unknown method". A header whose first byte is
// not the version (a JSON-era peer's opens with '{'), or one that ends
// inside a field, is a bad frame header: the connection is dropped.
//
// The cold rule: the admin and debug structures — the fixer report,
// repair.status, a debug.trace span dump — are not given fields. They
// ride field 27 as one JSON blob the codec never looks into
// (coldResponse, response.cold), so encoding/json is reachable from no
// frame of blocks, stripe, dn.read, dn.partial, dn.heartbeat, write or
// raid, and a new status field costs the wire nothing.
//
// The namenode answers metadata methods ("info", "stat", "blocks",
// "stripe"), mutations ("write", "raid", "fixer"), failure control
// ("fail", "restore"), the datanodes' "dn.heartbeat" and the repair
// control plane's "repair.status". Datanodes answer "dn.read" (a
// replica range), "dn.ping", and "dn.partial" (fold this node's repair
// ranges and its children's partial sums into one block-sized buffer).
// Every daemon answers "debug.trace". Errors travel in the response
// header as text plus a code for the kinds a caller acts on (corrupt
// replica, not found, exists, node down; RemoteError carries both); the
// payload always carries data, never errors.
//
// # Degraded reads and lent blocks
//
// A lost block is rebuilt by one fold (engine.Fold: a node's partial sum
// of the codec's linear repair plan is ec.EvaluateLinearPlan over the
// terms it holds, XORed with its children's) in one of two shapes, over
// one of two transports; internal/engine/aggtree.go has the whole
// account. By default the client is the one node and holds every term:
// degradedReadTraced runs the codec's ExecuteRepair — that fold, without
// children — over a fetch callback (one builder, shared with the hedge
// arm). With WithPartialSumRepair the datanodes fold the plan along a
// rack-aware tree (dn.partial), the client asks the root for one folded
// shard, and any failure in the tree, including a position only this
// client still holds, falls back to the first shape. A datanode that
// rebuilds a block it is to store (ROADMAP item 4's dn.repair) is to be
// a third caller of engine.Fold, not a third implementation.
//
// Client.ReadFile downloads each stripe once. It reads every block a
// replica can serve, then reconstructs the rest, and what it holds is
// lent to those reconstructions: the fetch callback answers a read of a
// held shard with a view of the held block (its slot of the result; see
// the next section) — a zero-padded copy in the fetch arena only where
// the block is shorter than the shard — and goes to a datanode for the
// rest. A lent position counts as alive; a block reconstructed earlier
// in the read is lent to later ones of its stripe; nothing is lent
// across stripes. The codec, its plan and the plan's cost are
// untouched: lending only decides which of the plan's bytes cross the
// wire (Counters.DegradedBytesFetched) and which do not
// (Counters.DegradedBytesLent), so a whole-stripe read that lost one
// data block downloads k blocks, as a healthy read does. The tree shape
// is lent nothing — one folded shard is all a lent reconstruction
// fetches for a single loss too — so it is for the client that holds
// none of the stripe.
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
package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/ec"
	"repro/internal/hdfs"
	"repro/internal/telemetry"
)

// Frame size sanity bounds: a header is tens of bytes (a block table or
// a span dump, kilobytes); a payload is at most one file write
// (kilobytes to megabytes in tests and the benchmark).
const (
	maxHeaderBytes  = 1 << 20
	maxPayloadBytes = 1 << 30
)

// frameReadBuffer sizes the buffered reader on either end of a
// connection: prefix, header and a payload of up to 4 KiB — a whole
// small-block reply — arrive in one read(2).
const frameReadBuffer = 8 << 10

// payloadStep is how much of a payload no buffer was lent for is
// allocated ahead of the bytes that have actually arrived (see
// readPayload).
const payloadStep = 256 << 10

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
// method; unused fields stay at their zero value and are not sent.
type request struct {
	Method  string
	Name    string
	Block   int64
	Offset  int64
	Length  int64
	Machine int
	Stripe  int64

	// Partial is the dn.partial fold tree rooted at the addressed
	// datanode; Length carries the target (folded buffer) size.
	Partial *wirePartialNode

	// Trace is the optional trace context of a sampled operation. The
	// SpanID it carries is the CALLER's span: a daemon minting a span
	// for the request uses it as the parent, then rewrites the field so
	// downstream calls made while handling (dn.partial child fetches)
	// parent correctly.
	Trace *telemetry.TraceContext
	// TraceID filters a debug.trace dump to one trace (0 = everything).
	TraceID uint64
}

// wirePartialTerm is one term of a linear repair plan as a datanode is
// sent it: read [off, off+len) of the block, scale by the GF(2^8)
// coefficient, XOR into the partial sum at target_off — an ec.LinearTerm
// naming a block id, because a datanode knows blocks, not stripes.
type wirePartialTerm struct {
	Block     int64
	Offset    int64
	Length    int64
	TargetOff int64
	Coeff     byte
}

// linear returns the ec.LinearTerm the term stands for, reading the
// given shard index.
func (t wirePartialTerm) linear(shard int) ec.LinearTerm {
	return ec.LinearTerm{Read: ec.ReadRequest{Shard: shard, Offset: t.Offset, Length: t.Length}, Coeff: t.Coeff, TargetOff: t.TargetOff}
}

// wirePartialNode is one helper of a partial-sum fold tree: the
// datanode applies its terms locally, recursively collects each child's
// folded buffer from the child's daemon at addr, XORs everything, and
// returns one target-sized payload — so each tree edge carries exactly
// one buffer instead of the node's raw reads.
type wirePartialNode struct {
	Machine  int
	Addr     string // filled for children; the addressed node ignores its own
	Terms    []wirePartialTerm
	Children []wirePartialNode
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

// maxPartialTerms bounds the terms of one node of a partial-sum tree: a
// fold holds every range it reads until the sum is done, so the term
// count bounds what one dn.partial can make a daemon hold.
const maxPartialTerms = 4 * maxPartialNodes

// validatePartial checks one partial-sum request's structural bounds
// before any I/O: a sane target size, a bounded tree, and every term
// reading and folding inside a target-sized shard (ec's one check).
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
		if len(n.Terms) > maxPartialTerms {
			return fmt.Errorf("serve: partial node exceeds %d terms", maxPartialTerms)
		}
		for _, t := range n.Terms {
			if err := t.linear(0).CheckBounds(targetSize); err != nil {
				return err
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
	OK   bool
	Err  string
	Code errCode // what kind of error Err is; see RemoteError

	Size            int64
	Raided          bool
	Blocks          []wireBlock
	Stripe          *wireStripe
	Codec           string
	BlockSize       int64
	DataNodes       []string
	MachinesPerRack int

	// Cold is the body of a cold admin/debug reply — a FixReport, a
	// RepairStatus, a debug.trace span dump — as JSON the header codec
	// carries as one opaque run of bytes and never looks into (see
	// coldResponse and cold). No method on a read or write path sets it.
	Cold []byte
}

// wireBlock is one block's client-visible metadata.
type wireBlock struct {
	ID        int64
	Size      int64
	Stripe    int64 // -1 when unstriped
	StripePos int
	Locations []int

	// held never crosses the wire (the header codec does not know it):
	// once a client's ReadFile has the block's bytes it is the
	// block's slot of that read's result — a view, kept in the table the
	// read already owns so that holding a block costs the all-healthy
	// path nothing. See Client.lentTo.
	held []byte
}

// wireStripe is one stripe's client-visible layout, enough for a
// client to plan and execute a degraded read.
type wireStripe struct {
	ID        int64
	ShardSize int64
	Positions []wirePos
}

// wirePos is one stripe position: block id (-1 for a phantom zero
// block), logical size, and live holders.
type wirePos struct {
	Block     int64
	Size      int64
	Locations []int
}

// RemoteError is an error reported by the far side of an RPC, as
// opposed to a transport failure. The client treats transport failures
// as "try another replica / refresh metadata"; remote errors are
// definitive answers. Code says which kind of failure Msg describes: the
// typed sentinels of the far side do not cross the wire, their codes do,
// and callers match on Code, never on Msg's wording.
type RemoteError struct {
	Code errCode
	Msg  string
}

func (e *RemoteError) Error() string { return e.Msg }

// errCode is the wire form of the error sentinels a caller acts on.
type errCode uint8

const (
	codeOther          errCode = iota
	codeCorruptReplica         // hdfs.ErrCorruptReplica: the stored bytes failed their checksum
	codeNotFound               // hdfs.ErrFileNotFound, hdfs.ErrNotStored
	codeExists                 // hdfs.ErrFileExists
	codeNodeDown               // hdfs.ErrNodeDown
)

// errCodeOf classifies a handler's error for the wire. An error relayed
// from another daemon (a child's partial sum) keeps the code it came
// with.
func errCodeOf(err error) errCode {
	var remote *RemoteError
	switch {
	case errors.As(err, &remote):
		return remote.Code
	case errors.Is(err, hdfs.ErrCorruptReplica):
		return codeCorruptReplica
	case errors.Is(err, hdfs.ErrFileNotFound), errors.Is(err, hdfs.ErrNotStored):
		return codeNotFound
	case errors.Is(err, hdfs.ErrFileExists):
		return codeExists
	case errors.Is(err, hdfs.ErrNodeDown):
		return codeNodeDown
	}
	return codeOther
}

// errFrameTooLarge guards against corrupt or hostile frame lengths.
var errFrameTooLarge = errors.New("serve: frame exceeds size bound")

// frameHeader is what a frame carries ahead of its payload: a *request
// or a *response (codec.go).
type frameHeader interface {
	appendHeader(b []byte) []byte
	decodeHeader(b []byte) error
}

// frameBuf is the scratch one frame is built in or parsed from: prefix
// and header bytes, and the two-element vector a payload frame is
// written from.
type frameBuf struct {
	hdr  []byte
	vec  [2][]byte
	bufs net.Buffers
}

var frameBufs = sync.Pool{New: func() any { return &frameBuf{hdr: make([]byte, 0, 512)} }}

func (fb *frameBuf) release() {
	fb.vec[1] = nil // the payload is the caller's, not the pool's
	frameBufs.Put(fb)
}

// wireOrder tells the race detector what a socket already guarantees: a
// frame is read after it was written, so what a handler did before
// answering happened before whatever the caller does with the answer.
// Package syscall says so for write(2) and read(2); the vectored write
// net.Buffers issues goes around that annotation, and tests that run a
// client and its daemons in one process would report the handler's last
// writes as racing with the caller. Touched in race builds only.
var wireOrder atomic.Uint32

// writeFrame sends one frame as one write: the prefix and the encoded
// header are built in a pooled buffer and the payload is passed by
// reference beside it (net.Buffers: one writev(2) on a TCP connection),
// so no payload byte is copied in user space and nothing is left to
// flush. The payload must stay untouched until writeFrame returns.
func writeFrame(w io.Writer, hdr frameHeader, payload []byte) error {
	fb := frameBufs.Get().(*frameBuf)
	defer fb.release()
	b := hdr.appendHeader(put(fb.hdr[:0], 0, 0, 0, 0, 0, 0, 0, 0, headerVersion))
	fb.hdr = b
	if len(b)-8 > maxHeaderBytes || len(payload) > maxPayloadBytes {
		return errFrameTooLarge
	}
	binary.BigEndian.PutUint32(b[0:4], uint32(len(b)-8))
	binary.BigEndian.PutUint32(b[4:8], uint32(len(payload)))
	if len(payload) == 0 {
		_, err := w.Write(b)
		return err
	}
	fb.vec[0], fb.vec[1] = b, payload
	fb.bufs = fb.vec[:]
	if raceEnabled {
		wireOrder.Add(1)
	}
	_, err := fb.bufs.WriteTo(w)
	return err
}

// readHeader reads a frame's prefix and header, decodes the header into
// hdr, and returns the length of the payload that follows, which the
// caller consumes with readPayload. A payload longer than maxPayload is
// refused on the prefix alone, before the header is read or anything is
// sized by it.
func readHeader(r io.Reader, hdr frameHeader, maxPayload uint32) (int, error) {
	fb := frameBufs.Get().(*frameBuf)
	defer fb.release()
	pre := fb.hdr[:8]
	if _, err := io.ReadFull(r, pre); err != nil {
		return 0, err
	}
	if raceEnabled {
		wireOrder.Load()
	}
	hlen := binary.BigEndian.Uint32(pre[0:4])
	plen := binary.BigEndian.Uint32(pre[4:8])
	if hlen > maxHeaderBytes || plen > maxPayload {
		return 0, errFrameTooLarge
	}
	if uint32(cap(fb.hdr)) < hlen {
		fb.hdr = make([]byte, hlen)
	}
	hb := fb.hdr[:hlen]
	if _, err := io.ReadFull(r, hb); err != nil {
		return 0, err
	}
	if err := hdr.decodeHeader(hb); err != nil {
		return 0, err
	}
	return int(plen), nil
}

// readPayload reads a frame's n payload bytes: into dst when its
// capacity holds them (the result is then dst[:n], the caller's to
// recycle), and otherwise into a buffer grown as the bytes arrive — at
// most payloadStep, then doubling — because n is only what the peer
// declared, and sixteen bytes must not reserve a gigabyte.
func readPayload(r io.Reader, n int, dst []byte) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	if cap(dst) >= n {
		if _, err := io.ReadFull(r, dst[:n]); err != nil {
			return nil, err
		}
		return dst[:n], nil
	}
	buf := make([]byte, 0, min(n, payloadStep))
	for {
		got := len(buf)
		buf = buf[:cap(buf)]
		if _, err := io.ReadFull(r, buf[got:]); err != nil {
			return nil, err
		}
		if len(buf) == n {
			return buf, nil
		}
		grown := make([]byte, len(buf), min(n, 2*len(buf)))
		copy(grown, buf)
		buf = grown
	}
}

// readFrame reads one whole frame: header into hdr, payload as
// readPayload lands it.
func readFrame(r io.Reader, hdr frameHeader, dst []byte) ([]byte, error) {
	n, err := readHeader(r, hdr, maxPayloadBytes)
	if err != nil {
		return nil, err
	}
	return readPayload(r, n, dst)
}

// okResponse and errResponse build reply headers.
func okResponse() *response { return &response{OK: true} }

func errResponse(err error) *response { return &response{Err: err.Error(), Code: errCodeOf(err)} }

// coldResponse answers a cold admin/debug method: body rides the
// header's opaque Cold field as JSON — the one place JSON is left on
// the wire, and on no read or write path.
func coldResponse(body any) *response {
	blob, err := json.Marshal(body)
	if err != nil {
		return errResponse(err)
	}
	return &response{OK: true, Cold: blob}
}

// cold decodes a cold reply's body into v.
func (r *response) cold(v any) error {
	if len(r.Cold) == 0 {
		return errors.New("serve: reply carries no body")
	}
	return json.Unmarshal(r.Cold, v)
}
