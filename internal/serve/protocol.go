// Package serve is the networked serving layer of the miniature DFS: a
// namenode daemon (file → block → stripe metadata, placement, and the
// repair manager, the system's one recovery driver: heartbeat
// detection, a 15-minute grace window, a risk-ordered repair queue,
// and "fixer" as its repair-now) and one datanode daemon per
// machine (replica range reads, partial-sum folds), all speaking a small
// framed RPC protocol over real TCP on localhost, plus a concurrent Client
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
// one read. One reply leaves otherwise: a whole replica whose reader
// checks it (below) goes as a write of its prefix and header, then
// sendfile(2) from the datanode's segment file straight to the socket
// (replicaSender, Linux only, one per connection), and no payload byte
// enters the datanode's memory. Neither end sizes anything by a length it has only been told:
// a payload no buffer was lent for is read into one that grows as
// the bytes arrive (readPayload), a datanode, which takes no request
// payload, hangs up on a prefix declaring one, and every count inside a
// header is held to the bytes left in it.
//
// There is one header encoding, for the request and the response of
// every method (codec.go). After the version byte it is a run of
// fields, each a one-byte key — field number<<1 | kind — and a value:
// kind 0 a zigzag varint, kind 1 a uvarint length and that many bytes.
// A field at its zero value is not sent. Numbers 9, 10, 20 and 24 are
// retired and are not given out again.
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
//	 9  (retired)        bytes   was a span tracer's trace context
//	10  (retired)        varint  was the tracer's dump filter
//	11  caller checks    varint  1: a whole-block dn.read whose caller checks
//	                             the block's CRC-32 itself
//	16  ok               varint  1
//	17  err              bytes   error text
//	18  err code         varint  what kind of error (errCode)
//	19  size             varint  file size
//	21  blocks           bytes   count, then per block: id, size, stripe,
//	                             position, location count, locations
//	22  stripe layout    bytes   id, shard size, position count, then per
//	                             position: block, location count, locations
//	23  codec            bytes   handshake: codec name
//	25  datanodes        bytes   handshake: count, then each address
//	26  machines/rack    varint  handshake
//	27  cold             bytes   opaque body of a cold reply (below)
//	28  checksums        bytes   count, then each block's CRC-32 (4 bytes,
//	                             big endian), in field 21's order; the
//	                             count must equal field 21's
//
// A decoder steps over a field whose number it does not know — the kind
// bit says how — so a field can be added (a request id, when one
// connection comes to carry several calls) without a second format; a
// method id it has no name for reaches the handler as "#<id>", a name
// no handler has, and is answered "unknown method". A header whose first byte is
// not the version (a JSON-era peer's opens with '{'), or one that ends
// inside a field, is a bad frame header: the connection is dropped.
//
// The cold rule: the admin structures — the fixer report and
// repair.status — are not given fields. They ride field 27 as one JSON
// blob the codec never looks into (coldResponse, response.cold), so
// encoding/json is reachable from no frame of blocks, stripe, dn.read,
// dn.partial, dn.heartbeat, write or raid, and a new status field costs
// the wire nothing.
//
// The namenode answers metadata methods ("info", "blocks", "stripe"),
// mutations ("write", "raid", and "fixer", the repair manager's
// RepairNow), the datanodes' "dn.heartbeat", the repair manager's
// "repair.status", and "replica.report" (fields 3 and 6: a reader's
// word that a machine's replica of a block failed its checksum; see
// the next section). Datanodes answer "dn.read" (a replica range) and
// "dn.partial" (fold this node's repair ranges and its children's
// partial sums into one block-sized buffer). Errors travel in the
// response header as text plus a code for the kinds a caller acts on
// (corrupt replica, not found, exists, node down; RemoteError carries
// both); the payload always carries data, never errors.
//
// # Who checks a replica's bytes
//
// Every byte a replica serves is checked against a CRC-32 before
// anyone uses it. By default the datanode checks: the extent store
// reads the chunks covering the range and checks each against its
// chunk CRC before the bytes leave, and refuses rot with the
// corrupt-replica code. A range read (a degraded read's helper,
// dn.partial) and a block of 4 KiB or less (sendMinBytes) are served
// only that way. ReadFile's replica walk holds each block's CRC-32 from
// the block table (field 28), so it marks its larger whole-block reads
// "the caller checks" (field 11) and checks every reply to one against
// that CRC-32; a mismatch is counted as a corrupt replica, like a
// datanode's refusal, and the walk moves on. A datanode whose extent
// store keeps the replica in a file answers a marked read by
// sendfile(2), unread and unchecked, holding no store lock across the
// send, so each byte is checked once, by the reader. One backed by a
// node cache or a store decorator, or on a system without sendfile(2),
// copies and checks the replica as for any read, and the reader checks
// it again: one CRC-32 pass over a block it already holds.
//
// A replica refused on checksum grounds — by the reader's check or by
// the datanode's, in the replica walk or as a degraded read's helper —
// is reported to the namenode ("replica.report"), and the read goes on
// around it whatever becomes of the report. The namenode does not take
// the reader's word: it re-reads the replica through the datanode's
// checked read (hdfs.Cluster.VerifyReplica) and evicts it only if that
// read fails the block's CRC-32, then hands the block to the repair
// manager, whose next poll rebuilds it. A lost report costs nothing
// but time: the next reader that meets the rot reports it again.
//
// # Degraded reads and lent blocks
//
// A lost block is rebuilt by one fold (engine.Fold: a node's partial sum
// of the codec's linear repair plan is ec.EvaluateLinearPlan over the
// terms it holds, XORed with its children's) in one of two shapes, over
// one of two transports; internal/engine/aggtree.go has the whole
// account. By default the client is the one node and holds every term:
// degradedRead runs the codec's ExecuteRepair — that fold, without
// children — over a fetch callback, around any helper a datanode
// refuses as corrupt: the position is erased and the decode runs again
// without it (engine.DecodeAroundRot, as the BlockFixer's). With WithPartialSumRepair the
// datanodes fold the plan along a
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
// bounds, the sizes adding up to the file's), allocates the result
// unzeroed (uninitBytes), and gives each block its slot of it: a slice
// whose capacity ends where the next block's begins. Each byte of the
// result is written once — by read(2) of a replica's reply into its
// slot, by a client-cache hit's copy, or by the copy of a decoded block
// — and never zeroed first: there is no per-block buffer and no
// assembly copy, and a held block is that slot, so what is lent to a
// reconstruction is views of the result.
//
// The memory holds whatever it held before, so one condition keeps it
// from being seen: a slot is written in full before it is marked held,
// lent, cached or returned, and on any error the result is dropped
// unread. A slot is held only once its block is whole (the reply
// passed the length check, the cache hit or the rebuilt block is the
// table's size); a replica that fails mid-payload leaves it half
// written, unheld, for the next replica or the reconstruction to
// overwrite in full, and no reply of any length can write past it.
// TestResultHoldsNoByteItDidNotRead reads a file of zeros through every
// path over a heap strewn with freed non-zero buffers.
//
// One rule keeps that safe: only work ReadFile waits for may write into
// the result or be lent views of it. The replica chain and the
// second-pass reconstruction both run on ReadFile's goroutine, and
// nothing the client starts outlives the read. The client cache copies
// in and out (cache.Put owns its bytes), so a caller scribbling on the
// result cannot poison it. When ReadFile returns, the slice is the
// caller's alone.
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
	"repro/internal/extent"
	"repro/internal/hdfs"
)

// Frame size sanity bounds: a header is tens of bytes (a block table or
// a cold reply, kilobytes); a payload is at most one file write
// (kilobytes to megabytes in tests and the benchmark).
const (
	maxHeaderBytes  = 1 << 20
	maxPayloadBytes = 1 << 30
)

// frameReadBuffer sizes the buffered reader on either end of a
// connection: prefix, header and a payload of up to 4 KiB — a whole
// small-block reply — arrive in one read(2).
const frameReadBuffer = 8 << 10

// sendMinBytes is the largest replica read that is never sent by
// sendfile(2): a payload this small arrives in the one read of a
// frameReadBuffer reply, and a read and a copy cost less than a send
// from the file and a check at the reader.
const sendMinBytes = 4 << 10

// payloadStep is how much of a payload no buffer was lent for is
// allocated ahead of the bytes that have actually arrived (see
// readPayload).
const payloadStep = 256 << 10

// Namenode RPC method names.
const (
	methodInfo   = "info"
	methodBlocks = "blocks"
	methodStripe = "stripe"
	methodWrite  = "write"
	methodRaid   = "raid"
	methodFixer  = "fixer"
	// methodHeartbeat is sent BY datanode daemons TO the namenode on a
	// timer; the repair manager's failure detector consumes it.
	// methodRepairStatus returns the control plane's status snapshot.
	methodHeartbeat    = "dn.heartbeat"
	methodRepairStatus = "repair.status"
	// methodReportReplica is a reader's report of a replica that failed
	// its checksum: Block and Machine name it.
	methodReportReplica = "replica.report"
)

// Datanode RPC method names.
const (
	methodDNRead    = "dn.read"
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

	// CallerChecks marks a whole-block dn.read whose caller holds the
	// block's CRC-32 and checks the reply against it, so the datanode
	// may send the replica from its file unchecked.
	CallerChecks bool

	// Partial is the dn.partial fold tree rooted at the addressed
	// datanode; Length carries the target (folded buffer) size.
	Partial *wirePartialNode
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
	Blocks          []wireBlock
	Stripe          *wireStripe
	Codec           string
	DataNodes       []string
	MachinesPerRack int

	// Cold is the body of a cold admin reply — a FixReport or a
	// repairmgr.Status — as JSON the header codec carries as one opaque
	// run of bytes and never looks into (see coldResponse and cold). No
	// method on a read or write path sets it.
	Cold []byte

	// send never crosses the wire: set by a datanode answering a marked
	// read from a store that can send (hdfs.Cluster.NodeBlockSender), it
	// is how the payload leaves. The connection's replicaSender calls it
	// with the read's block and its frame writer, replicaSender.sendFile,
	// in place of writing a payload.
	send func(hdfs.BlockID, extent.SendFunc) error
}

// wireBlock is one block's client-visible metadata.
type wireBlock struct {
	ID        int64
	Size      int64
	Checksum  uint32 // CRC-32 (IEEE) of the block's bytes; travels in field 28
	Stripe    int64  // -1 when unstriped
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
// block) and live holders.
type wirePos struct {
	Block     int64
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
	b, err := fb.encode(hdr, int64(len(payload)))
	if err != nil {
		return err
	}
	if len(payload) == 0 {
		_, err := w.Write(b)
		return err
	}
	fb.vec[0], fb.vec[1] = b, payload
	fb.bufs = fb.vec[:]
	if raceEnabled {
		wireOrder.Add(1)
	}
	_, err = fb.bufs.WriteTo(w)
	return err
}

// encode builds a frame's prefix and header, for a payload of n bytes,
// in fb.
func (fb *frameBuf) encode(hdr frameHeader, n int64) ([]byte, error) {
	b := hdr.appendHeader(put(fb.hdr[:0], 0, 0, 0, 0, 0, 0, 0, 0, headerVersion))
	fb.hdr = b
	if len(b)-8 > maxHeaderBytes || n > maxPayloadBytes {
		return nil, errFrameTooLarge
	}
	binary.BigEndian.PutUint32(b[0:4], uint32(len(b)-8))
	binary.BigEndian.PutUint32(b[4:8], uint32(n))
	return b, nil
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

// coldResponse answers a cold admin method: body rides the
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
