// Package extent is an append-only on-disk block store — the
// persistence layer under a datanode, in the shape of production
// chunk stores (cubeFS datanode partitions): fixed-header records
// appended to rolling segment files, an in-memory index rebuilt by a
// sequential scan on startup, torn tails truncated rather than fatal,
// deletes as tombstones, and live-record compaction to reclaim dead
// bytes. Payloads carry CRC-32s verified on every read, so silent
// disk corruption surfaces as a typed ErrCorrupt instead of rotted
// bytes served to a client.
//
// # Record versions and range reads
//
// Put writes v2 records ("EXT2"): the fixed 32-byte header, a table of
// one CRC-32 per ChunkSize (4 KiB) slice of the payload, the payload.
//
//	header   32 B               magic, id, length, CRC of the table, header CRC
//	table    4 B x ceil(len/4096)  big-endian CRC-32 of each payload chunk
//	payload  len B
//
// ReadRangeInto preads and verifies only the chunks covering the range
// it is asked for, so a repair that needs half a helper block reads and
// checksums half of it; a whole-block read is still one pread, and Get,
// VerifyAll and the scrubber above still verify every byte. The
// compatibility rule: v1 records ("EXTP", one CRC over the whole
// payload, written before chunk tables existed) are never written but
// open, read and compact verbatim beside v2 ones — a range read of a v1
// record reads and verifies the whole payload, the only unit its CRC
// covers. segment.go has the byte layout.
//
// The extent_read_bytes_total counter is the payload bytes actually
// pread. It is the only place the range saving shows in numbers: the
// repository benchmark's traced pass wraps each store in a decorator
// that embeds hdfs.BlockStore and so hides the optional range seam (it
// falls back to whole-block Get), so its extent.get_* rows do not.
//
// Durability is a policy knob: FsyncNever trusts the page cache (test
// speed), FsyncInterval bounds the loss window, FsyncAlways syncs
// every append (measured by the extent_fsync_seconds histogram).
package extent

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Typed errors callers branch on.
var (
	// ErrNotFound reports a block id the index does not hold.
	ErrNotFound = errors.New("extent: block not found")
	// ErrCorrupt reports a payload that failed CRC verification — the
	// caller should treat the replica as lost, not retry.
	ErrCorrupt = errors.New("extent: payload failed CRC verification")
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("extent: store closed")
)

// IsCorrupt reports whether err is a CRC-verification failure.
func IsCorrupt(err error) bool { return errors.Is(err, ErrCorrupt) }

// FsyncPolicy selects when appends reach stable storage.
type FsyncPolicy int

const (
	// FsyncNever leaves durability to the OS page cache.
	FsyncNever FsyncPolicy = iota
	// FsyncInterval syncs when at least FsyncEvery has elapsed since
	// the last sync, checked at append time (no background goroutine).
	FsyncInterval
	// FsyncAlways syncs after every append.
	FsyncAlways
)

// String names the policy for reports and flags.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncNever:
		return "never"
	case FsyncInterval:
		return "interval"
	case FsyncAlways:
		return "always"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// ParseFsyncPolicy maps a flag string to a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "never":
		return FsyncNever, nil
	case "interval":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	}
	return FsyncNever, fmt.Errorf("extent: unknown fsync policy %q (never|interval|always)", s)
}

// Defaults for zero-valued Options fields.
const (
	// DefaultSegmentBytes seals a segment once appends would push it
	// past this size.
	DefaultSegmentBytes = int64(64) << 20
	// DefaultFsyncEvery is the FsyncInterval window.
	DefaultFsyncEvery = 100 * time.Millisecond
	// DefaultMaxPayloadBytes bounds a single record's payload; the
	// recovery scan rejects larger length fields as garbage.
	DefaultMaxPayloadBytes = int64(1) << 30
)

// Options parameterise a Store.
type Options struct {
	// Dir is the segment directory, created if missing.
	Dir string
	// Fsync selects the durability policy (default FsyncNever).
	Fsync FsyncPolicy
	// FsyncEvery is the FsyncInterval window (default 100ms).
	FsyncEvery time.Duration
	// SegmentBytes seals the active segment at this size (default 64 MiB).
	SegmentBytes int64
	// MaxPayloadBytes bounds one record's payload (default 1 GiB).
	MaxPayloadBytes int64
	// CompactAfterDeadFraction, when > 0, arms automatic compaction:
	// whenever an append seals a segment, the store compacts if dead
	// bytes (overwritten records, tombstones and their victims) make up
	// at least this fraction of the sealed segments' footprint. A
	// delete-heavy store then bounds its own disk amplification without
	// anyone calling Compact. 0 keeps compaction strictly manual.
	CompactAfterDeadFraction float64
	// Telemetry, when non-nil, receives the store's instruments:
	// extent_appends_total, extent_scan_records_total,
	// extent_torn_tails_total, extent_crc_failures_total,
	// extent_read_bytes_total (payload bytes pread by reads),
	// extent_compactions_total, and the extent_fsync_seconds histogram.
	Telemetry *telemetry.Registry
}

func (o Options) withDefaults() Options {
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = DefaultFsyncEvery
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.MaxPayloadBytes <= 0 {
		o.MaxPayloadBytes = DefaultMaxPayloadBytes
	}
	return o
}

// recordLoc is the index entry for one live block: where its latest
// payload lives and what authenticates it — for a v2 record (magic
// magicPut2) the chunk table and the CRC the header holds of it, for a
// v1 record (magicPut) the CRC of the whole payload. The table is kept
// as found on disk and checked against crc on every read, so compaction
// can copy a record verbatim and a rotted table stays detectable.
type recordLoc struct {
	seg        *segment
	magic      uint32
	payloadOff int64
	length     int64
	crc        uint32
	table      []byte
}

// diskLen is the record's on-disk footprint.
func (l recordLoc) diskLen() int64 { return headerLen + int64(len(l.table)) + l.length }

// Store is an append-only extent store. All methods are safe for
// concurrent use; reads share a lock and pread from segment files, so
// they proceed in parallel.
type Store struct {
	opts Options

	mu       sync.RWMutex
	segs     []*segment // ascending seq; the last is the active one
	index    map[int64]recordLoc
	live     int64 // sum of live payload bytes
	closed   bool
	lastSync time.Time
	scratch  []byte // append encode buffer, reused under mu

	cAppends     *telemetry.Counter
	cScanRecords *telemetry.Counter
	cTornTails   *telemetry.Counter
	cCrcFailures *telemetry.Counter
	cReadBytes   *telemetry.Counter
	cCompactions *telemetry.Counter
	hFsync       *telemetry.Histogram
}

// Open builds the store over dir, creating it if needed, and rebuilds
// the in-memory index by scanning every segment sequentially. A torn
// tail (crash mid-append) is truncated and counted, never fatal; only
// real I/O errors fail the open.
func Open(opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, errors.New("extent: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	reg := opts.Telemetry
	s := &Store{
		opts:         opts,
		index:        make(map[int64]recordLoc),
		lastSync:     time.Now(),
		cAppends:     reg.Counter("extent_appends_total"),
		cScanRecords: reg.Counter("extent_scan_records_total"),
		cTornTails:   reg.Counter("extent_torn_tails_total"),
		cCrcFailures: reg.Counter("extent_crc_failures_total"),
		cReadBytes:   reg.Counter("extent_read_bytes_total"),
		cCompactions: reg.Counter("extent_compactions_total"),
		hFsync:       reg.Histogram("extent_fsync_seconds", telemetry.LatencyBuckets),
	}
	seqs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	for _, seq := range seqs {
		seg, err := s.openSegment(seq)
		if err != nil {
			s.closeLocked()
			return nil, err
		}
		s.segs = append(s.segs, seg)
	}
	if len(s.segs) == 0 {
		seg, err := s.createSegment(1)
		if err != nil {
			return nil, err
		}
		s.segs = append(s.segs, seg)
	}
	return s, nil
}

// segmentName formats the file name of segment seq.
func segmentName(seq int) string { return fmt.Sprintf("seg-%08d.ext", seq) }

// listSegments returns the segment sequence numbers present in dir,
// ascending. Files that do not match the naming scheme are ignored.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []int
	for _, e := range entries {
		var seq int
		if _, err := fmt.Sscanf(e.Name(), "seg-%08d.ext", &seq); err == nil && segmentName(seq) == e.Name() {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

// openSegment opens and scans one existing segment, folding its valid
// records into the index and truncating any torn tail.
func (s *Store) openSegment(seq int) (*segment, error) {
	path := filepath.Join(s.opts.Dir, segmentName(seq))
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	records, validLen, torn, err := scanSegment(f, s.opts.MaxPayloadBytes)
	if err != nil {
		f.Close()
		return nil, err
	}
	if torn {
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, err
		}
		s.cTornTails.Inc()
	}
	seg := &segment{seq: seq, path: path, f: f, size: validLen}
	for _, r := range records {
		s.cScanRecords.Inc()
		s.dropIndexEntry(r.id)
		if r.magic == magicDel {
			seg.garbage += headerLen
			continue
		}
		s.index[r.id] = recordLoc{seg: seg, magic: r.magic, payloadOff: r.payloadOff, length: r.length, crc: r.crc, table: r.table}
		s.live += r.length
	}
	return seg, nil
}

// dropIndexEntry removes id from the index, charging its record to the
// owning segment's garbage accounting. No-op for unknown ids.
func (s *Store) dropIndexEntry(id int64) {
	loc, ok := s.index[id]
	if !ok {
		return
	}
	loc.seg.garbage += loc.diskLen()
	s.live -= loc.length
	delete(s.index, id)
}

// createSegment creates a fresh, empty segment file.
func (s *Store) createSegment(seq int) (*segment, error) {
	path := filepath.Join(s.opts.Dir, segmentName(seq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	return &segment{seq: seq, path: path, f: f, size: 0}, nil
}

// active returns the segment appends go to. Callers hold mu.
func (s *Store) active() *segment { return s.segs[len(s.segs)-1] }

// Put stores (or overwrites) a block payload.
func (s *Store) Put(id int64, data []byte) error {
	if int64(len(data)) > s.opts.MaxPayloadBytes {
		return fmt.Errorf("extent: payload of %d bytes exceeds the %d-byte record bound", len(data), s.opts.MaxPayloadBytes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	before := s.active()
	// The one CRC pass over the payload; the table is the index's own.
	//repolint:ignore framecheck sized from len(data), which the record bound above already caps
	table := make([]byte, tableLen(int64(len(data))))
	fillTable(table, data)
	loc, err := s.appendLocked(magicPut2, id, crc32.ChecksumIEEE(table), table, data)
	if err != nil {
		return err
	}
	s.dropIndexEntry(id)
	s.index[id] = loc
	s.live += loc.length
	s.cAppends.Inc()
	if err := s.maybeCompactLocked(before); err != nil {
		return err
	}
	return s.maybeSyncLocked()
}

// Delete removes a block by appending a tombstone. Deleting an absent
// id is a no-op (no tombstone written).
func (s *Store) Delete(id int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.index[id]; !ok {
		return nil
	}
	before := s.active()
	if _, err := s.appendLocked(magicDel, id, 0, nil, nil); err != nil {
		return err
	}
	s.dropIndexEntry(id)
	s.active().garbage += headerLen // the tombstone itself
	s.cAppends.Inc()
	if err := s.maybeCompactLocked(before); err != nil {
		return err
	}
	return s.maybeSyncLocked()
}

// appendLocked writes one record — header, chunk table (v2 only, nil
// otherwise), payload — to the active segment, rolling to a fresh
// segment first when the active one is full. The caller supplies the
// header's body CRC and the table so compaction can copy records of
// either version verbatim without re-validating (a rotted payload or
// table keeps its mismatched CRC and stays detectable). The returned
// loc keeps table. Callers hold mu exclusively.
func (s *Store) appendLocked(magic uint32, id int64, bodyCRC uint32, table, data []byte) (recordLoc, error) {
	recLen := int64(headerLen + len(table) + len(data))
	if a := s.active(); a.size > 0 && a.size+recLen > s.opts.SegmentBytes {
		if err := s.rollLocked(); err != nil {
			return recordLoc{}, err
		}
	}
	a := s.active()
	if int64(cap(s.scratch)) < recLen {
		s.scratch = make([]byte, recLen)
	}
	buf := s.scratch[:recLen]
	encodeHeader(buf[:headerLen], magic, id, uint32(len(data)), bodyCRC)
	copy(buf[headerLen:], table)
	copy(buf[headerLen+len(table):], data)
	if _, err := a.f.WriteAt(buf, a.size); err != nil {
		// Rewind to the pre-append size so a partial write cannot be
		// indexed; the truncate is best-effort (the scan would discard
		// the torn record on reopen anyway).
		if terr := a.f.Truncate(a.size); terr != nil {
			return recordLoc{}, errors.Join(err, terr)
		}
		return recordLoc{}, err
	}
	loc := recordLoc{seg: a, magic: magic, payloadOff: a.size + recLen - int64(len(data)), length: int64(len(data)), crc: bodyCRC, table: table}
	a.size += recLen
	return loc, nil
}

// rollLocked seals the active segment (syncing it, so sealed segments
// are always durable) and opens the next one.
func (s *Store) rollLocked() error {
	if err := s.fsyncLocked(); err != nil {
		return err
	}
	seg, err := s.createSegment(s.active().seq + 1)
	if err != nil {
		return err
	}
	s.segs = append(s.segs, seg)
	return nil
}

// maybeSyncLocked applies the fsync policy after an append.
func (s *Store) maybeSyncLocked() error {
	switch s.opts.Fsync {
	case FsyncAlways:
		return s.fsyncLocked()
	case FsyncInterval:
		if time.Since(s.lastSync) >= s.opts.FsyncEvery {
			return s.fsyncLocked()
		}
	}
	return nil
}

// fsyncLocked syncs the active segment, feeding the latency histogram.
func (s *Store) fsyncLocked() error {
	start := time.Now()
	if err := s.active().f.Sync(); err != nil {
		return err
	}
	s.hFsync.Observe(time.Since(start).Seconds())
	s.lastSync = time.Now()
	return nil
}

// Sync forces the active segment to stable storage regardless of
// policy.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.fsyncLocked()
}

// Get returns the block's payload in a fresh buffer, verifying every
// CRC-32 over it: a mismatch is ErrCorrupt (counted in
// extent_crc_failures_total), an unknown id is ErrNotFound.
func (s *Store) Get(id int64) ([]byte, error) { return s.GetInto(id, nil) }

// GetInto is Get reading into dst when its capacity holds the payload,
// so a caller that recycles dst reads without allocating: one pread
// into dst, the CRCs verified there. The result is dst[:n] (a fresh
// buffer when dst is too small); on error dst's contents are undefined.
func (s *Store) GetInto(id int64, dst []byte) ([]byte, error) {
	return s.ReadRangeInto(id, 0, math.MaxInt64, dst)
}

// ReadRangeInto returns payload bytes [offset, offset+length), clipped
// to the payload's end (so possibly fewer than length, none at all past
// it), reading and verifying no more than it must: of a v2 record the
// chunks covering the range — one pread of them, each checked against
// its table entry — of a v1 record the whole payload. The bytes land in
// dst when its capacity holds what is read, which is never more than
// the payload, and the result is then a view into dst; a smaller dst
// means the read allocates. On error dst's contents are undefined.
func (s *Store) ReadRangeInto(id, offset, length int64, dst []byte) ([]byte, error) {
	if offset < 0 || length < 0 {
		return nil, fmt.Errorf("extent: invalid read range [%d, +%d) of block %d", offset, length, id)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	loc, ok := s.index[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	if loc.length < 0 || loc.length > s.opts.MaxPayloadBytes {
		return nil, fmt.Errorf("%w: block %d (index length %d out of bounds)", ErrCorrupt, id, loc.length)
	}
	if offset >= loc.length || length == 0 {
		return dst[:0], nil
	}
	end := loc.length
	if length < end-offset {
		end = offset + length
	}
	// [lo, hi) is what must be read to verify [offset, end).
	lo, hi := int64(0), loc.length
	if loc.magic == magicPut2 {
		lo = offset / ChunkSize * ChunkSize
		hi = min((end+ChunkSize-1)/ChunkSize*ChunkSize, loc.length)
	}
	span := hi - lo // at most loc.length, bounded above
	if int64(cap(dst)) < span {
		//repolint:ignore noalloc no (or too small a) caller buffer: this is the allocating read
		dst = make([]byte, span)
	}
	buf := dst[:span]
	if _, err := loc.seg.f.ReadAt(buf, loc.payloadOff+lo); err != nil {
		return nil, err
	}
	s.cReadBytes.Add(span)
	if !loc.verify(buf, lo) {
		s.cCrcFailures.Inc()
		return nil, fmt.Errorf("%w: block %d", ErrCorrupt, id)
	}
	return buf[offset-lo : end-lo], nil
}

// verify reports whether buf — the payload bytes from lo, a chunk
// boundary, to a chunk boundary or the payload's end (all of it for a
// v1 record) — matches the record's checksums.
func (l recordLoc) verify(buf []byte, lo int64) bool {
	if l.magic != magicPut2 {
		return crc32.ChecksumIEEE(buf) == l.crc
	}
	if crc32.ChecksumIEEE(l.table) != l.crc {
		return false
	}
	for entry := l.table[lo/ChunkSize*4:]; len(buf) > 0; entry = entry[4:] {
		n := min(len(buf), ChunkSize)
		if crc32.ChecksumIEEE(buf[:n]) != binary.BigEndian.Uint32(entry) {
			return false
		}
		buf = buf[n:]
	}
	return true
}

// Has reports whether the index holds the block.
func (s *Store) Has(id int64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[id]
	return ok && !s.closed
}

// IDs returns the live block ids, ascending.
func (s *Store) IDs() []int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]int64, 0, len(s.index))
	for id := range s.index {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the live block count.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// StoredBytes sums live payload bytes (dead record and header overhead
// excluded; see Stats for the on-disk footprint).
func (s *Store) StoredBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.live
}

// Stats is a point-in-time store summary.
type Stats struct {
	// Segments counts segment files (>= 1; the last is active).
	Segments int
	// LiveBlocks and LiveBytes cover the index.
	LiveBlocks int
	LiveBytes  int64
	// DiskBytes is the summed segment file size; GarbageBytes the dead
	// portion compaction would reclaim.
	DiskBytes    int64
	GarbageBytes int64
}

// Stats returns the store summary.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{Segments: len(s.segs), LiveBlocks: len(s.index), LiveBytes: s.live}
	for _, seg := range s.segs {
		st.DiskBytes += seg.size
		st.GarbageBytes += seg.garbage
	}
	return st
}

// CompactStats summarises one compaction.
type CompactStats struct {
	// SegmentsRemoved counts sealed segments deleted.
	SegmentsRemoved int
	// RecordsCopied counts live records rewritten into the active tail.
	RecordsCopied int
	// BytesReclaimed is the drop in on-disk footprint.
	BytesReclaimed int64
}

// Compact rewrites every live record of the sealed segments into the
// active tail and deletes the sealed files. Copying every sealed
// segment at once keeps tombstone semantics exact: a tombstone's
// effect is already folded into the index, so no surviving older
// record can resurrect on the next scan. Records of either version are
// copied verbatim — payload, chunk table and original CRC — so bit rot
// in a sealed segment stays detectable after compaction instead of
// being silently re-blessed.
func (s *Store) Compact() (CompactStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return CompactStats{}, ErrClosed
	}
	return s.compactLocked()
}

// maybeCompactLocked runs the auto-compaction policy after an append:
// when the append sealed a segment (before is no longer the active
// one) and dead bytes dominate the sealed footprint past the
// configured fraction, compact. Checking only at seal time keeps the
// policy O(segments) per segment, not per append, and guarantees
// compaction never runs twice for the same sealed segment. Only
// Put/Delete call it — compactLocked's own appends cannot re-enter.
func (s *Store) maybeCompactLocked(before *segment) error {
	frac := s.opts.CompactAfterDeadFraction
	if frac <= 0 || s.active() == before {
		return nil
	}
	sealed := s.segs[:len(s.segs)-1]
	var disk, dead int64
	for _, seg := range sealed {
		disk += seg.size
		dead += seg.garbage
	}
	if disk == 0 || float64(dead) < frac*float64(disk) {
		return nil
	}
	_, err := s.compactLocked()
	return err
}

func (s *Store) compactLocked() (CompactStats, error) {
	victims := s.segs[:len(s.segs)-1]
	if len(victims) == 0 {
		return CompactStats{}, nil
	}
	var before int64
	for _, seg := range s.segs {
		before += seg.size
	}
	isVictim := make(map[*segment]bool, len(victims))
	for _, seg := range victims {
		isVictim[seg] = true
	}
	// Copy in (segment, offset) order for sequential source reads.
	type liveRec struct {
		id  int64
		loc recordLoc
	}
	var recs []liveRec
	for id, loc := range s.index {
		if isVictim[loc.seg] {
			recs = append(recs, liveRec{id, loc})
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].loc.seg.seq != recs[j].loc.seg.seq {
			return recs[i].loc.seg.seq < recs[j].loc.seg.seq
		}
		return recs[i].loc.payloadOff < recs[j].loc.payloadOff
	})
	st := CompactStats{}
	for _, r := range recs {
		if r.loc.length < 0 || r.loc.length > s.opts.MaxPayloadBytes {
			return st, fmt.Errorf("%w: block %d (index length %d out of bounds)", ErrCorrupt, r.id, r.loc.length)
		}
		buf := make([]byte, r.loc.length)
		if _, err := r.loc.seg.f.ReadAt(buf, r.loc.payloadOff); err != nil {
			return st, err
		}
		loc, err := s.appendLocked(r.loc.magic, r.id, r.loc.crc, r.loc.table, buf)
		if err != nil {
			return st, err
		}
		s.index[r.id] = loc
		st.RecordsCopied++
	}
	if err := s.fsyncLocked(); err != nil {
		return st, err
	}
	keep := s.segs[:0]
	for _, seg := range s.segs {
		if !isVictim[seg] {
			keep = append(keep, seg)
			continue
		}
		if err := seg.f.Close(); err != nil {
			return st, err
		}
		if err := os.Remove(seg.path); err != nil {
			return st, err
		}
		st.SegmentsRemoved++
	}
	s.segs = keep
	var after int64
	for _, seg := range s.segs {
		after += seg.size
	}
	st.BytesReclaimed = before - after
	s.cCompactions.Inc()
	return st, nil
}

// Corrupt flips one payload byte of the block's stored record on disk
// — the test hook standing in for silent media corruption. offset is
// relative to the payload start.
func (s *Store) Corrupt(id int64, offset int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	loc, ok := s.index[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	if offset < 0 || offset >= loc.length {
		return fmt.Errorf("extent: offset %d outside payload of %d bytes", offset, loc.length)
	}
	var b [1]byte
	if _, err := loc.seg.f.ReadAt(b[:], loc.payloadOff+offset); err != nil {
		return err
	}
	b[0] ^= 0xFF
	if _, err := loc.seg.f.WriteAt(b[:], loc.payloadOff+offset); err != nil {
		return err
	}
	return nil
}

// VerifyAll CRC-checks every byte of every live record, returning the
// ids that fail (ascending). Non-corruption I/O errors abort the sweep.
func (s *Store) VerifyAll() ([]int64, error) {
	var corrupt []int64
	for _, id := range s.IDs() {
		if _, err := s.Get(id); err != nil {
			if errors.Is(err, ErrCorrupt) {
				corrupt = append(corrupt, id)
				continue
			}
			return corrupt, err
		}
	}
	return corrupt, nil
}

// Close syncs the active segment and releases every file handle.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if err := s.fsyncLocked(); err != nil {
		s.closeLocked()
		return err
	}
	return s.closeLocked()
}

// closeLocked releases handles without syncing (open-failure cleanup).
func (s *Store) closeLocked() error {
	var firstErr error
	for _, seg := range s.segs {
		if err := seg.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.closed = true
	return firstErr
}

// Dir returns the segment directory.
func (s *Store) Dir() string { return s.opts.Dir }
