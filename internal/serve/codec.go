// The binary frame header: one tagged encoding for the request and the
// response of every method (layout in "Wire protocol" in the package
// doc). Encoders append onto a caller-owned buffer; decoders copy out
// whatever they keep, so the bytes they were handed can be recycled the
// moment they return.
package serve

import (
	"encoding/binary"
	"errors"
	"strconv"

	"repro/internal/telemetry"
)

// headerVersion opens every header. A JSON-era header opens with '{'
// and is refused by this byte alone.
const headerVersion = 0x01

// A field's key is one byte, field number<<1 | kind. The kind is all a
// decoder needs to step over a field it does not know.
const (
	kindVarint = 0 // zigzag varint
	kindBytes  = 1 // uvarint length, then that many bytes
)

// Field keys. Request and response share one numbering, so a key means
// one thing wherever it turns up; a field at its zero value is not sent.
const (
	tagMethod   = 1<<1 | kindVarint // index into methodNames
	tagName     = 2<<1 | kindBytes
	tagBlock    = 3<<1 | kindVarint
	tagOffset   = 4<<1 | kindVarint
	tagLength   = 5<<1 | kindVarint
	tagMachine  = 6<<1 | kindVarint
	tagStripeID = 7<<1 | kindVarint
	tagPartial  = 8<<1 | kindBytes // wirePartialNode
	tagTrace    = 9<<1 | kindBytes // telemetry.TraceContext
	tagTraceID  = 10<<1 | kindVarint

	tagOK              = 16<<1 | kindVarint
	tagErr             = 17<<1 | kindBytes
	tagErrCode         = 18<<1 | kindVarint
	tagSize            = 19<<1 | kindVarint
	tagRaided          = 20<<1 | kindVarint
	tagBlocks          = 21<<1 | kindBytes // count, then wireBlocks
	tagStripe          = 22<<1 | kindBytes // wireStripe
	tagCodec           = 23<<1 | kindBytes
	tagBlockSize       = 24<<1 | kindVarint
	tagDataNodes       = 25<<1 | kindBytes // count, then strings
	tagMachinesPerRack = 26<<1 | kindVarint
	tagCold            = 27<<1 | kindBytes // opaque; see response.Cold
)

// methodNames gives every method its wire id: a method travels as its
// id and nothing else. Ids are append-only — a retired method keeps its
// slot — and one this build has no name for (0, which is also what a
// name outside the table encodes as, or a newer build's) decodes to a
// name no handler has, so the answer is the handler's "unknown method".
var methodNames = [...]string{
	1: methodInfo, 2: methodStat, 3: methodBlocks, 4: methodStripe,
	5: methodWrite, 6: methodRaid, 7: methodFixer, 8: methodFail,
	9: methodRestore, 10: methodHeartbeat, 11: methodRepairStatus,
	12: methodDebugTrace, 13: methodDNRead, 14: methodDNPing, 15: methodDNPartial,
}

func methodID(name string) int64 {
	for id := 1; id < len(methodNames); id++ {
		if methodNames[id] == name {
			return int64(id)
		}
	}
	return 0
}

// Decoded element counts are held to the bytes left in the header at
// these minimum encoded sizes, so a count can never size an allocation
// the header's own length does not pay for. maxWireTreeNodes bounds a
// decoded dn.partial tree (and so the decoder's recursion): above what
// validatePartial accepts, so a merely oversized tree is still answered
// with its error, far below what a hostile header could otherwise nest.
const (
	minBlockBytes    = 5 // id, size, stripe, position, location count
	minPosBytes      = 3 // block, size, location count
	minTermBytes     = 5 // block, offset, length, target offset, coefficient
	minNodeBytes     = 4 // machine, address length, term count, child count
	maxWireTreeNodes = 4 * maxPartialNodes
)

var (
	errBadHeader = errors.New("serve: bad frame header")
	errNotBinary = errors.New("serve: bad frame header: not a version-1 binary header (a JSON-era peer?)")
)

// --- encoding ---------------------------------------------------------

// put and appendString are where a header grows by raw bytes (the
// varints go through encoding/binary's appenders).
func put(b []byte, p ...byte) []byte {
	//repolint:ignore noalloc grows the pooled header buffer, which keeps its capacity from frame to frame
	return append(b, p...)
}

func appendString(b []byte, s string) []byte {
	//repolint:ignore noalloc grows the pooled header buffer, which keeps its capacity from frame to frame
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendVarintField(b []byte, tag byte, v int64) []byte {
	if v == 0 {
		return b
	}
	return binary.AppendVarint(put(b, tag), v)
}

func appendBoolField(b []byte, tag byte, v bool) []byte {
	if !v {
		return b
	}
	return put(b, tag, 2) // zigzag 1
}

func appendStringField(b []byte, tag byte, s string) []byte {
	if s == "" {
		return b
	}
	return appendString(put(b, tag), s)
}

func appendInts(b []byte, v []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	for _, x := range v {
		b = binary.AppendVarint(b, int64(x))
	}
	return b
}

// beginNested opens a kindBytes field whose length is not known until
// its content has been appended; endNested, given the offset beginNested
// returned, slides the content up and writes the length in front of it.
func beginNested(b []byte, tag byte) ([]byte, int) {
	b = put(b, tag)
	return b, len(b)
}

func endNested(b []byte, at int) []byte {
	var pre [binary.MaxVarintLen64]byte
	n := len(b) - at
	k := binary.PutUvarint(pre[:], uint64(n))
	b = put(b, pre[:k]...)
	copy(b[at+k:], b[at:at+n])
	copy(b[at:], pre[:k])
	return b
}

func (r *request) appendHeader(b []byte) []byte {
	b = appendVarintField(b, tagMethod, methodID(r.Method))
	b = appendStringField(b, tagName, r.Name)
	b = appendVarintField(b, tagBlock, r.Block)
	b = appendVarintField(b, tagOffset, r.Offset)
	b = appendVarintField(b, tagLength, r.Length)
	b = appendVarintField(b, tagMachine, int64(r.Machine))
	b = appendVarintField(b, tagStripeID, r.Stripe)
	if r.Partial != nil {
		var at int
		b, at = beginNested(b, tagPartial)
		b = endNested(r.Partial.appendTo(b), at)
	}
	if t := r.Trace; t != nil {
		var at int
		b, at = beginNested(b, tagTrace)
		b = binary.AppendUvarint(b, t.TraceID)
		b = binary.AppendUvarint(b, t.SpanID)
		sampled := byte(0)
		if t.Sampled {
			sampled = 1
		}
		b = endNested(put(b, sampled), at)
	}
	return appendVarintField(b, tagTraceID, int64(r.TraceID))
}

func (n *wirePartialNode) appendTo(b []byte) []byte {
	b = binary.AppendVarint(b, int64(n.Machine))
	b = appendString(b, n.Addr)
	b = binary.AppendUvarint(b, uint64(len(n.Terms)))
	for _, t := range n.Terms {
		b = binary.AppendVarint(b, t.Block)
		b = binary.AppendVarint(b, t.Offset)
		b = binary.AppendVarint(b, t.Length)
		b = binary.AppendVarint(b, t.TargetOff)
		b = put(b, t.Coeff)
	}
	b = binary.AppendUvarint(b, uint64(len(n.Children)))
	for i := range n.Children {
		b = n.Children[i].appendTo(b)
	}
	return b
}

func (r *response) appendHeader(b []byte) []byte {
	b = appendBoolField(b, tagOK, r.OK)
	b = appendStringField(b, tagErr, r.Err)
	b = appendVarintField(b, tagErrCode, int64(r.Code))
	b = appendVarintField(b, tagSize, r.Size)
	b = appendBoolField(b, tagRaided, r.Raided)
	if r.Blocks != nil {
		var at int
		b, at = beginNested(b, tagBlocks)
		b = binary.AppendUvarint(b, uint64(len(r.Blocks)))
		for i := range r.Blocks {
			bl := &r.Blocks[i]
			b = binary.AppendVarint(b, bl.ID)
			b = binary.AppendVarint(b, bl.Size)
			b = binary.AppendVarint(b, bl.Stripe)
			b = binary.AppendVarint(b, int64(bl.StripePos))
			b = appendInts(b, bl.Locations)
		}
		b = endNested(b, at)
	}
	if st := r.Stripe; st != nil {
		var at int
		b, at = beginNested(b, tagStripe)
		b = binary.AppendVarint(b, st.ID)
		b = binary.AppendVarint(b, st.ShardSize)
		b = binary.AppendUvarint(b, uint64(len(st.Positions)))
		for i := range st.Positions {
			p := &st.Positions[i]
			b = binary.AppendVarint(b, p.Block)
			b = binary.AppendVarint(b, p.Size)
			b = appendInts(b, p.Locations)
		}
		b = endNested(b, at)
	}
	b = appendStringField(b, tagCodec, r.Codec)
	b = appendVarintField(b, tagBlockSize, r.BlockSize)
	if r.DataNodes != nil {
		var at int
		b, at = beginNested(b, tagDataNodes)
		b = binary.AppendUvarint(b, uint64(len(r.DataNodes)))
		for _, addr := range r.DataNodes {
			b = appendString(b, addr)
		}
		b = endNested(b, at)
	}
	b = appendVarintField(b, tagMachinesPerRack, int64(r.MachinesPerRack))
	if len(r.Cold) > 0 {
		b = put(binary.AppendUvarint(put(b, tagCold), uint64(len(r.Cold))), r.Cold...)
	}
	return b
}

// --- decoding ---------------------------------------------------------

// decoder consumes a header front to back. The first malformed read —
// a varint that does not end, a length or count the remaining bytes
// cannot back — fails it for good: every later read returns zero and
// err carries errBadHeader out. Nothing it returns aliases b except
// bytes(), which callers copy.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail() {
	d.b, d.err = nil, errBadHeader
}

func (d *decoder) byte() byte {
	if len(d.b) == 0 {
		d.fail()
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// bytes returns a view of the next length-prefixed run.
func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail()
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *decoder) str() string { return string(d.bytes()) }

// count reads an element count and holds it to the bytes that remain:
// n elements of at least minBytes each must still fit.
func (d *decoder) count(minBytes int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/minBytes) {
		d.fail()
		return 0
	}
	return int(n)
}

func (d *decoder) ints() []int {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	v := make([]int, n)
	for i := range v {
		v[i] = int(d.varint())
	}
	return v
}

// nested opens a decoder over the next kindBytes field; the parent
// adopts its failure with join.
func (d *decoder) nested() decoder { return decoder{b: d.bytes(), err: d.err} }

func (d *decoder) join(sub *decoder) {
	if sub.err != nil {
		d.fail()
	}
}

// skip steps over a field this build does not know.
func (d *decoder) skip(tag byte) {
	if tag&1 == kindBytes {
		d.bytes()
	} else {
		d.varint()
	}
}

// openHeader checks the version byte and returns a decoder over the
// fields behind it.
func openHeader(b []byte) (decoder, error) {
	if len(b) == 0 || b[0] != headerVersion {
		return decoder{}, errNotBinary
	}
	return decoder{b: b[1:]}, nil
}

func (r *request) decodeHeader(b []byte) error {
	*r = request{}
	d, err := openHeader(b)
	if err != nil {
		return err
	}
	for len(d.b) > 0 {
		switch tag := d.byte(); tag {
		case tagMethod:
			if id := d.varint(); id > 0 && id < int64(len(methodNames)) {
				r.Method = methodNames[id]
			} else {
				r.Method = "#" + strconv.FormatInt(id, 10)
			}
		case tagName:
			r.Name = d.str()
		case tagBlock:
			r.Block = d.varint()
		case tagOffset:
			r.Offset = d.varint()
		case tagLength:
			r.Length = d.varint()
		case tagMachine:
			r.Machine = int(d.varint())
		case tagStripeID:
			r.Stripe = d.varint()
		case tagPartial:
			sub := d.nested()
			budget := maxWireTreeNodes
			r.Partial = new(wirePartialNode)
			sub.node(r.Partial, &budget)
			d.join(&sub)
		case tagTrace:
			sub := d.nested()
			r.Trace = &telemetry.TraceContext{TraceID: sub.uvarint(), SpanID: sub.uvarint(), Sampled: sub.byte() == 1}
			d.join(&sub)
		case tagTraceID:
			r.TraceID = uint64(d.varint())
		default:
			d.skip(tag)
		}
	}
	return d.err
}

// node decodes one fold-tree node and, recursively, its subtree, taking
// every node out of budget.
func (d *decoder) node(n *wirePartialNode, budget *int) {
	if *budget--; *budget < 0 {
		d.fail()
		return
	}
	n.Machine = int(d.varint())
	n.Addr = d.str()
	if terms := d.count(minTermBytes); terms > 0 {
		n.Terms = make([]wirePartialTerm, terms)
		for i := range n.Terms {
			n.Terms[i] = wirePartialTerm{Block: d.varint(), Offset: d.varint(), Length: d.varint(), TargetOff: d.varint(), Coeff: d.byte()}
		}
	}
	if children := d.count(minNodeBytes); children > 0 {
		n.Children = make([]wirePartialNode, children)
		for i := range n.Children {
			d.node(&n.Children[i], budget)
		}
	}
}

func (r *response) decodeHeader(b []byte) error {
	*r = response{}
	d, err := openHeader(b)
	if err != nil {
		return err
	}
	for len(d.b) > 0 {
		switch tag := d.byte(); tag {
		case tagOK:
			r.OK = d.varint() == 1
		case tagErr:
			r.Err = d.str()
		case tagErrCode:
			r.Code = errCode(d.varint())
		case tagSize:
			r.Size = d.varint()
		case tagRaided:
			r.Raided = d.varint() == 1
		case tagBlocks:
			sub := d.nested()
			r.Blocks = make([]wireBlock, sub.count(minBlockBytes))
			for i := range r.Blocks {
				r.Blocks[i] = wireBlock{ID: sub.varint(), Size: sub.varint(), Stripe: sub.varint(), StripePos: int(sub.varint()), Locations: sub.ints()}
			}
			d.join(&sub)
		case tagStripe:
			sub := d.nested()
			st := &wireStripe{ID: sub.varint(), ShardSize: sub.varint()}
			if n := sub.count(minPosBytes); n > 0 {
				st.Positions = make([]wirePos, n)
				for i := range st.Positions {
					st.Positions[i] = wirePos{Block: sub.varint(), Size: sub.varint(), Locations: sub.ints()}
				}
			}
			r.Stripe = st
			d.join(&sub)
		case tagCodec:
			r.Codec = d.str()
		case tagBlockSize:
			r.BlockSize = d.varint()
		case tagDataNodes:
			sub := d.nested()
			r.DataNodes = make([]string, sub.count(1))
			for i := range r.DataNodes {
				r.DataNodes[i] = sub.str()
			}
			d.join(&sub)
		case tagMachinesPerRack:
			r.MachinesPerRack = int(d.varint())
		case tagCold:
			r.Cold = append([]byte(nil), d.bytes()...)
		default:
			d.skip(tag)
		}
	}
	return d.err
}
