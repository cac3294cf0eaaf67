package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// encodeHeader returns hdr's header bytes as they stand in a frame,
// version byte first.
func encodeHeader(hdr frameHeader) []byte {
	return hdr.appendHeader([]byte{headerVersion})
}

// fillNonZero sets every exported field reachable from v to a value of
// its own, none of them zero: pointers are allocated, slices get two
// elements, and a type that contains itself (the dn.partial tree) stops
// nesting after two levels. Unexported fields are left alone — they do
// not cross the wire.
func fillNonZero(v reflect.Value, next *int, depth int) {
	*next++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		n := int64(*next)
		if *next%2 == 0 {
			n = -n // zigzag's other half
		}
		v.SetInt(n)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*next))
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *next))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(v.Elem(), next, depth)
	case reflect.Slice:
		if depth > 2 {
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillNonZero(v.Index(i), next, depth+1)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillNonZero(v.Field(i), next, depth)
			}
		}
	default:
		panic(fmt.Sprintf("fillNonZero: no rule for %s; teach it and the codec the new kind together", v.Type()))
	}
}

// filledHeaders returns a request and a response with every exported
// field set (fillNonZero). The one field that cannot hold an arbitrary
// value is the method: it travels as its id, so it is given a real one.
func filledHeaders() (req request, resp response) {
	var next int
	fillNonZero(reflect.ValueOf(&req).Elem(), &next, 0)
	fillNonZero(reflect.ValueOf(&resp).Elem(), &next, 0)
	req.Method = methodDNPartial
	return req, resp
}

// requireAllSet fails for any exported field of the struct v the filler
// left at zero: the round trip below proves nothing about such a field.
func requireAllSet(t *testing.T, v reflect.Value) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.IsExported() && v.Field(i).IsZero() {
			t.Fatalf("%s.%s was left at its zero value", v.Type(), f.Name)
		}
	}
}

// TestHeaderRoundTripsEveryField: a request and a response with every
// exported field set — nested block table, stripe layout, fold tree,
// cold blob — come back equal from encode → decode. A
// field added to either struct without a case in the codec is filled
// here, dropped on the wire, and fails the comparison.
func TestHeaderRoundTripsEveryField(t *testing.T) {
	req, resp := filledHeaders()
	var gotReq request
	requireAllSet(t, reflect.ValueOf(req))
	if len(req.Partial.Children[1].Children[0].Terms) != 2 {
		t.Fatalf("the fold tree was not filled two levels down: %+v", req.Partial)
	}
	if err := gotReq.decodeHeader(encodeHeader(&req)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, gotReq) {
		t.Fatalf("request changed on the wire:\n sent %+v\n  got %+v", req, gotReq)
	}

	var gotResp response
	requireAllSet(t, reflect.ValueOf(resp))
	if err := gotResp.decodeHeader(encodeHeader(&resp)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp, gotResp) {
		t.Fatalf("response changed on the wire:\n sent %+v\n  got %+v", resp, gotResp)
	}

	// Every method this build names travels as its id and comes back as
	// the same string. A retired id's slot is empty: it decodes to a name
	// no handler has, and is answered "unknown method".
	for id := 1; id < len(methodNames); id++ {
		if methodNames[id] == "" {
			var got request
			if err := got.decodeHeader([]byte{headerVersion, tagMethod, byte(2 * id)}); err != nil || got.Method != "#"+strconv.Itoa(id) {
				t.Fatalf("retired id %d came back as %q (%v)", id, got.Method, err)
			}
			for daemon, handle := range map[string]handlerFunc{"namenode": new(NameNode).handle, "datanode": new(DataNode).handle} {
				if resp, _ := handle(&got, nil, nil); !strings.Contains(resp.Err, "unknown method") {
					t.Fatalf("retired id %d was answered %+v by the %s", id, resp, daemon)
				}
			}
			continue
		}
		sent := request{Method: methodNames[id]}
		hb := encodeHeader(&sent)
		if !bytes.Equal(hb, []byte{headerVersion, tagMethod, byte(2 * id)}) {
			t.Fatalf("%s encodes as % x, want its id alone", sent.Method, hb)
		}
		var got request
		if err := got.decodeHeader(hb); err != nil || got.Method != sent.Method {
			t.Fatalf("%s came back as %q (%v)", sent.Method, got.Method, err)
		}
	}
}

// TestHeaderDecodeSkipsUnknownTags: a field this build has no case for
// is stepped over by its kind — the fields around it still land — and a
// method id it has no name for reaches the handler as a name no handler
// has. The retired fields 9 and 10 are such fields: an older client's
// sampled dn.read, which carried its trace context in them, decodes to
// the same read without it.
func TestHeaderDecodeSkipsUnknownTags(t *testing.T) {
	hb := []byte{headerVersion}
	hb = append(hb, 60<<1|kindVarint, 0x96, 0x01) // an unknown two-byte varint
	hb = appendStringField(hb, tagName, "f")
	hb = appendStringField(hb, 61<<1|kindBytes, "from the future")
	hb = appendVarintField(hb, tagMethod, 999)
	hb = appendVarintField(hb, tagBlock, 42)
	var req request
	if err := req.decodeHeader(hb); err != nil {
		t.Fatal(err)
	}
	if want := (request{Method: "#999", Name: "f", Block: 42}); !reflect.DeepEqual(req, want) {
		t.Fatalf("decoded %+v, want %+v", req, want)
	}

	read := request{Method: methodDNRead, Block: 7, Offset: 512, Length: 4096}
	old := encodeHeader(&read)
	old = append(old, 9<<1|kindBytes, 5, 0xb9, 0x60, 0xe5, 0x0e, 1) // trace id, span id, sampled
	old = append(old, 10<<1|kindVarint, 0x80, 0x01)                 // the tracer's dump filter
	if err := req.decodeHeader(old); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, read) {
		t.Fatalf("an older client's traced read decoded to %+v, want %+v", req, read)
	}
}

// framed wraps header bytes in a frame that declares them, and no
// payload.
func framed(hb []byte) []byte {
	var pre [8]byte
	binary.BigEndian.PutUint32(pre[0:4], uint32(len(hb)))
	return append(pre[:], hb...)
}

// TestReadFrameTruncationsInsideTheHeader: the frame is whole but its
// header stops early — at every byte of a request and a response that
// use every field. A header cut between two fields is a shorter valid
// header and must decode to exactly the fields before the cut (it
// re-encodes to the same bytes); cut anywhere else — mid-varint,
// mid-string, inside a nested table — it is a clean "bad frame header",
// never a panic and never a header made of half a field.
func TestReadFrameTruncationsInsideTheHeader(t *testing.T) {
	req, resp := filledHeaders()
	for _, tc := range []struct {
		name  string
		full  []byte
		fresh func() frameHeader
		split int // struct fields that travel as two wire fields
	}{
		{"request", encodeHeader(&req), func() frameHeader { return new(request) }, 0},
		{"response", encodeHeader(&resp), func() frameHeader { return new(response) }, 1}, // Blocks: fields 21 and 28
	} {
		clean, bad := 0, 0
		for cut := 0; cut < len(tc.full); cut++ {
			hdr := tc.fresh()
			_, err := readFrame(bytes.NewReader(framed(tc.full[:cut])), hdr, nil)
			switch {
			case err == nil:
				if again := encodeHeader(hdr); !bytes.Equal(again, tc.full[:cut]) {
					t.Fatalf("%s header cut at %d of %d decoded without error to something else:\n cut % x\n got % x", tc.name, cut, len(tc.full), tc.full[:cut], again)
				}
				clean++
			case strings.Contains(err.Error(), "bad frame header"):
				bad++
			default:
				t.Fatalf("%s header cut at %d: %v, want a bad frame header", tc.name, cut, err)
			}
		}
		// One clean cut per top-level field at most; everything else is
		// inside a field.
		if fields := reflect.TypeOf(tc.fresh()).Elem().NumField() + tc.split; clean > fields || bad < len(tc.full)-fields-1 {
			t.Fatalf("%s: %d cuts decoded cleanly and %d were refused, of %d bytes and %d fields", tc.name, clean, bad, len(tc.full), fields)
		}
	}
}

// TestMalformedHeadersAreRefusedWithoutAllocating: each way a header
// can lie about itself is a bad frame header, and a count or length far
// beyond the bytes behind it sizes nothing on the way to being refused.
func TestMalformedHeadersAreRefusedWithoutAllocating(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	nest := func(tag byte, content ...byte) []byte {
		b, at := beginNested([]byte{headerVersion}, tag)
		return endNested(append(b, content...), at)
	}
	cases := []struct {
		name string
		hdr  frameHeader
		hb   []byte
	}{
		{"empty", new(request), nil},
		{"wrong version", new(request), []byte{0x02, tagBlock, 2}},
		{"tag without a value", new(request), []byte{headerVersion, tagBlock}},
		{"varint that never ends", new(request), []byte{headerVersion, tagBlock, 0x80, 0x80, 0x80}},
		{"varint longer than 64 bits", new(request), append([]byte{headerVersion, tagBlock}, bytes.Repeat([]byte{0xff}, 11)...)},
		{"string cut short", new(request), []byte{headerVersion, tagName, 10, 'a', 'b', 'c'}},
		{"string of a terabyte", new(request), append([]byte{headerVersion, tagName}, huge...)},
		{"unknown bytes field cut short", new(request), []byte{headerVersion, 61<<1 | kindBytes, 9, 1}},
		{"fold tree claiming a terabyte of terms", new(request), nest(tagPartial, append([]byte{0, 0}, huge...)...)},
		{"fold tree claiming a terabyte of children", new(request), nest(tagPartial, append([]byte{0, 0, 0}, huge...)...)},
		{"block table claiming a terabyte of blocks", new(response), nest(tagBlocks, huge...)},
		{"block table with more blocks than bytes", new(response), nest(tagBlocks, 3, 2, 2, 2, 2, 0)},
		{"block claiming a terabyte of locations", new(response), nest(tagBlocks, append([]byte{1, 2, 2, 2, 2}, huge...)...)},
		{"stripe claiming a terabyte of positions", new(response), nest(tagStripe, append([]byte{2, 2}, huge...)...)},
		{"address table claiming a terabyte of datanodes", new(response), nest(tagDataNodes, huge...)},
		{"cold blob cut short", new(response), []byte{headerVersion, tagCold, 200, 1, 'x'}},
	}
	for _, tc := range cases {
		var err error
		grew := allocatedDuring(func() { _, err = readFrame(bytes.NewReader(framed(tc.hb)), tc.hdr, nil) })
		if err == nil || !strings.Contains(err.Error(), "bad frame header") {
			t.Errorf("%s: got %v, want a bad frame header", tc.name, err)
		}
		if grew > 64<<10 {
			t.Errorf("%s: refusing a %d-byte header allocated %d bytes", tc.name, len(tc.hb), grew)
		}
	}

	// A fold tree nested past what any decoder will walk is cut off by
	// the node budget, not by the stack.
	deep := []byte{}
	for i := 0; i < maxWireTreeNodes+1; i++ {
		deep = append(deep, 0, 0, 0, 1) // machine 0, no address, no terms, one child
	}
	deep = append(deep, 0, 0, 0, 0)
	var req request
	if err := req.decodeHeader(nest(tagPartial, deep...)); !errors.Is(err, errBadHeader) {
		t.Fatalf("a fold tree %d levels deep: got %v, want it refused", maxWireTreeNodes+2, err)
	}
	// One the decoder does walk, but validatePartial will not accept,
	// still reaches the handler.
	if err := req.decodeHeader(nest(tagPartial, deep[:4*(maxPartialNodes+8)]...)); err == nil {
		t.Fatal("a tree whose last node promises a child that is not there decoded")
	}
	ok := append(append([]byte{}, deep[:4*(maxPartialNodes+8)]...), 0, 0, 0, 0)
	if err := req.decodeHeader(nest(tagPartial, ok...)); err != nil || req.Partial.countNodes(maxPartialNodes) <= maxPartialNodes {
		t.Fatalf("a tree of %d nodes: %v", maxPartialNodes+9, err)
	}
}

// FuzzDecodeHeader: no byte string makes either decoder panic, and one
// they accept decodes to something stable — encoded again and decoded
// again it is the same header. Seeds: testdata/fuzz/FuzzDecodeHeader.
func FuzzDecodeHeader(f *testing.F) {
	req, resp := filledHeaders()
	f.Add(encodeHeader(&req)) // these two follow the structs; the files are as committed
	f.Add(encodeHeader(&resp))
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, fresh := range []func() frameHeader{
			func() frameHeader { return new(request) },
			func() frameHeader { return new(response) },
		} {
			first := fresh()
			if first.decodeHeader(b) != nil {
				continue
			}
			if req, ok := first.(*request); ok && strings.HasPrefix(req.Method, "#") {
				req.Method = "" // an id this build has no name for is one it cannot send either
			}
			second := fresh()
			if err := second.decodeHeader(encodeHeader(first)); err != nil {
				t.Fatalf("%T decoded from % x does not decode from its own encoding: %v", first, b, err)
			}
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("%T decoded from % x is not stable:\n first %+v\nsecond %+v", first, b, first, second)
			}
		}
	})
}

// TestSendFieldsRoundTrip: field 11 (a dn.read whose caller checks the
// block's CRC-32) is one key and the varint 1, sent only when set, and
// decodes back; a header without it decodes to unset.
func TestSendFieldsRoundTrip(t *testing.T) {
	req := request{Method: methodDNRead, Block: 7, Length: 64 << 10, CallerChecks: true}
	hb := encodeHeader(&req)
	want := []byte{headerVersion, tagMethod, 26, tagBlock, 14, tagLength, 0x80, 0x80, 0x08, tagCallerChecks, 2}
	if !bytes.Equal(hb, want) {
		t.Fatalf("a marked dn.read encodes as % x, want % x", hb, want)
	}
	var gotReq request
	if err := gotReq.decodeHeader(hb); err != nil || gotReq != req {
		t.Fatalf("a marked dn.read came back as %+v (%v)", gotReq, err)
	}
	req.CallerChecks = false
	if hb := encodeHeader(&req); bytes.IndexByte(hb[1:], tagCallerChecks) >= 0 || gotReq.decodeHeader(hb) != nil || gotReq.CallerChecks {
		t.Fatalf("an unmarked dn.read encodes as % x and comes back marked %v", hb, gotReq.CallerChecks)
	}
}
