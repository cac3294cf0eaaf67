// Segment file format and recovery scanner.
//
// A segment is a flat file of back-to-back records. Every record opens
// with the same fixed 32-byte header:
//
//	offset  size  field
//	     0     4  magic        ("EXT2" put, "EXTP" v1 put, "EXTD" tombstone)
//	     4     8  block id     (big-endian int64)
//	    12     8  block offset (reserved; always 0 — full-block records)
//	    20     4  payload length
//	    24     4  body CRC-32 (IEEE): of the chunk table ("EXT2"), of the
//	              whole payload ("EXTP"), 0 ("EXTD")
//	    28     4  header CRC-32 over bytes [0, 28)
//
// What follows the header depends on the record version:
//
//	"EXT2" (v2, what Put writes)   chunk table, then payload
//	"EXTP" (v1, read and compacted verbatim, never written) payload
//	"EXTD"                          nothing
//
// The v2 chunk table holds one big-endian CRC-32 per ChunkSize (4 KiB)
// slice of the payload — ceil(length/ChunkSize) entries, the last one
// covering the short tail — so a range read verifies only the chunks it
// covers. The header's body CRC authenticates the table, the table
// authenticates the payload.
//
// The header CRC makes a torn or garbage tail self-evident without
// trusting any field: the scanner accepts a record only when the magic,
// the header CRC, the length bound, and the record's extent (table and
// payload) all check out, and treats the first failure as the end of
// valid data. Neither the chunk table nor the payload is verified
// during the scan — recovery walks the headers, keeps each table as
// found, and never reads a payload — and both are enforced on every read
// instead: a rotted table is ErrCorrupt for that one record, like a
// rotted payload.
package extent

import (
	"encoding/binary"
	"errors"
	"io"
	"os"
	"syscall"

	"repro/internal/crc"
)

const (
	// headerLen is the fixed record header size.
	headerLen = 32
	// magicPut2 marks a v2 record: a chunk-CRC table, then the block
	// payload. magicPut is its v1 predecessor (whole-payload CRC, no
	// table), which old segments still hold; magicDel a tombstone
	// (length 0, no payload).
	magicPut2 = 0x45585432 // "EXT2"
	magicPut  = 0x45585450 // "EXTP"
	magicDel  = 0x45585444 // "EXTD"

	// ChunkSize is the payload span one v2 chunk CRC covers — the
	// granularity of a verified range read.
	ChunkSize = crc.ChunkSize
)

// tableLen returns the byte length of the chunk table of a v2 record
// with the given payload length.
func tableLen(length int64) int64 {
	return (length + ChunkSize - 1) / ChunkSize * 4
}

// blockCRC returns the CRC-32 of a payload of the given length from its
// chunk table, each entry folded onto the CRC of the chunks before it
// (crc.Combine): O(chunks), and not one payload byte read.
func blockCRC(table []byte, length int64) uint32 {
	var sum uint32
	for ; length > 0; table = table[4:] {
		n := min(length, ChunkSize)
		sum = crc.Combine(sum, binary.BigEndian.Uint32(table), n)
		length -= n
	}
	return sum
}

// encodeHeader fills a 32-byte header for a record of the given kind.
func encodeHeader(dst []byte, magic uint32, id int64, length uint32, bodyCRC uint32) {
	binary.BigEndian.PutUint32(dst[0:4], magic)
	binary.BigEndian.PutUint64(dst[4:12], uint64(id))
	binary.BigEndian.PutUint64(dst[12:20], 0) // block offset, reserved
	binary.BigEndian.PutUint32(dst[20:24], length)
	binary.BigEndian.PutUint32(dst[24:28], bodyCRC)
	binary.BigEndian.PutUint32(dst[28:32], crc.Checksum(dst[0:28]))
}

// segment is one on-disk chunk file. The last segment of a store is
// active (appended to); earlier ones are sealed.
type segment struct {
	seq  int
	path string
	f    *os.File
	// raw is f's descriptor, held open for the length of a send
	// (Store.Send) by its Control.
	raw syscall.RawConn
	// size is the byte length of valid records; a torn tail found at
	// scan time is truncated away so size always equals the file size.
	size int64
	// garbage counts bytes of dead records (overwritten versions,
	// deleted payloads, tombstones) — the compaction trigger signal.
	garbage int64
}

// newSegment wraps an open segment file whose first size bytes are
// valid records, closing the file if it cannot.
func newSegment(seq int, path string, f *os.File, size int64) (*segment, error) {
	raw, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &segment{seq: seq, path: path, f: f, raw: raw, size: size}, nil
}

// scanRecord is one valid record the recovery scan surfaced.
type scanRecord struct {
	magic      uint32
	id         int64
	payloadOff int64
	length     int64
	crc        uint32 // the header's body CRC
	table      []byte // v2 chunk table as found on disk; empty otherwise
}

// scanSegment reads a window of the file at a time. Past a record of
// scanWindow bytes or more, the window is scanMinWindow: the next
// record's header and the chunk table of a payload up to ~4 MiB, in one
// call, and none of its payload. Past a smaller record it is
// scanWindow, which holds several small records whole, as a buffered
// sequential scan would.
const (
	scanMinWindow = 4 << 10
	scanWindow    = 64 << 10
)

// scanSegment walks the segment's records from byte 0, returning every
// valid record, the byte length of the valid prefix, and whether a torn
// (or garbage) tail was found after it. It reads headers and chunk
// tables and skips payloads: a record's extent is proved by the file
// size, so a segment of large records costs O(records), not O(bytes).
// Only real I/O failures return an error; a malformed tail is data loss
// bounded to the last write, not a failure to open the store.
func scanSegment(f *os.File, maxPayload int64) (records []scanRecord, validLen int64, torn bool, err error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, false, err
	}
	fileSize := fi.Size()
	// win holds the file's bytes [winOff, winOff+len(win)); bytes inside
	// it cost no read.
	var buf [scanWindow]byte
	var win []byte
	var winOff int64
	ahead := int64(scanMinWindow)
	// fetch fills p with the file's bytes at off, from the window or, when
	// they lie outside it, from a window of ahead bytes read at off (or
	// straight from the file, when p is larger). It reports false when the
	// file ends first.
	fetch := func(p []byte, off int64) (bool, error) {
		if off < winOff || off+int64(len(p)) > winOff+int64(len(win)) {
			if int64(len(p)) > ahead {
				n, err := f.ReadAt(p, off)
				return n == len(p), eofIsShort(err)
			}
			n, err := f.ReadAt(buf[:min(ahead, fileSize-off)], off)
			if err = eofIsShort(err); err != nil {
				return false, err
			}
			win, winOff = buf[:n], off
		}
		if off+int64(len(p)) > winOff+int64(len(win)) {
			return false, nil
		}
		copy(p, win[off-winOff:])
		return true, nil
	}
	var hdr [headerLen]byte
	for validLen < fileSize {
		ok, err := fetch(hdr[:], validLen)
		if err != nil {
			return nil, 0, false, err
		}
		if !ok {
			return records, validLen, true, nil // torn header
		}
		if crc.Checksum(hdr[0:28]) != binary.BigEndian.Uint32(hdr[28:32]) {
			return records, validLen, true, nil
		}
		magic := binary.BigEndian.Uint32(hdr[0:4])
		if magic != magicPut2 && magic != magicPut && magic != magicDel {
			return records, validLen, true, nil
		}
		length := int64(binary.BigEndian.Uint32(hdr[20:24]))
		if length > maxPayload || (magic == magicDel && length != 0) {
			return records, validLen, true, nil
		}
		var tlen int64
		if magic == magicPut2 {
			tlen = tableLen(length)
		}
		if tlen > fileSize-validLen-headerLen-length {
			return records, validLen, true, nil // table or payload past EOF
		}
		table := make([]byte, tlen)
		if tlen > 0 {
			ok, err := fetch(table, validLen+headerLen)
			if err != nil {
				return nil, 0, false, err
			}
			if !ok {
				return records, validLen, true, nil // the file shrank under the scan
			}
		}
		records = append(records, scanRecord{
			magic:      magic,
			id:         int64(binary.BigEndian.Uint64(hdr[4:12])),
			payloadOff: validLen + headerLen + tlen,
			length:     length,
			crc:        binary.BigEndian.Uint32(hdr[24:28]),
			table:      table,
		})
		validLen += headerLen + tlen + length
		ahead = scanMinWindow
		if headerLen+tlen+length < scanWindow {
			ahead = scanWindow
		}
	}
	return records, validLen, false, nil // clean end
}

// eofIsShort turns ReadAt's io.EOF, which only says the read came up
// short, into no error: the caller checks the count.
func eofIsShort(err error) error {
	if errors.Is(err, io.EOF) {
		return nil
	}
	return err
}
