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
// during the scan — recovery stays a sequential walk that keeps each
// table as found — and both are enforced on every read instead: a
// rotted table is ErrCorrupt for that one record, like a rotted payload.
package extent

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
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
	ChunkSize = 4096
)

// tableLen returns the byte length of the chunk table of a v2 record
// with the given payload length.
func tableLen(length int64) int64 {
	return (length + ChunkSize - 1) / ChunkSize * 4
}

// fillTable writes payload's per-chunk CRCs into table, which has
// tableLen(len(payload)) bytes.
func fillTable(table, payload []byte) {
	for i := 0; len(payload) > 0; i += 4 {
		n := min(len(payload), ChunkSize)
		binary.BigEndian.PutUint32(table[i:], crc32.ChecksumIEEE(payload[:n]))
		payload = payload[n:]
	}
}

// encodeHeader fills a 32-byte header for a record of the given kind.
func encodeHeader(dst []byte, magic uint32, id int64, length uint32, bodyCRC uint32) {
	binary.BigEndian.PutUint32(dst[0:4], magic)
	binary.BigEndian.PutUint64(dst[4:12], uint64(id))
	binary.BigEndian.PutUint64(dst[12:20], 0) // block offset, reserved
	binary.BigEndian.PutUint32(dst[20:24], length)
	binary.BigEndian.PutUint32(dst[24:28], bodyCRC)
	binary.BigEndian.PutUint32(dst[28:32], crc32.ChecksumIEEE(dst[0:28]))
}

// segment is one on-disk chunk file. The last segment of a store is
// active (appended to); earlier ones are sealed.
type segment struct {
	seq  int
	path string
	f    *os.File
	// size is the byte length of valid records; a torn tail found at
	// scan time is truncated away so size always equals the file size.
	size int64
	// garbage counts bytes of dead records (overwritten versions,
	// deleted payloads, tombstones) — the compaction trigger signal.
	garbage int64
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

// scanSegment walks the segment sequentially from byte 0, returning
// every valid record, the byte length of the valid prefix, and whether
// a torn (or garbage) tail was found after it. Only real I/O failures
// return an error; a malformed tail is data loss bounded to the last
// write, not a failure to open the store.
func scanSegment(f *os.File, maxPayload int64) (records []scanRecord, validLen int64, torn bool, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, false, err
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, false, err
	}
	fileSize := fi.Size()
	br := bufio.NewReaderSize(f, 1<<16)
	var hdr [headerLen]byte
	for {
		n, err := io.ReadFull(br, hdr[:])
		if err != nil {
			if errors.Is(err, io.EOF) && n == 0 {
				return records, validLen, false, nil // clean end
			}
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return records, validLen, true, nil // torn header
			}
			return nil, 0, false, err
		}
		if crc32.ChecksumIEEE(hdr[0:28]) != binary.BigEndian.Uint32(hdr[28:32]) {
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
		if _, err := io.ReadFull(br, table); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return records, validLen, true, nil
			}
			return nil, 0, false, err
		}
		if length > 0 {
			if _, err := br.Discard(int(length)); err != nil {
				if errors.Is(err, io.EOF) {
					return records, validLen, true, nil
				}
				return nil, 0, false, err
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
	}
}
