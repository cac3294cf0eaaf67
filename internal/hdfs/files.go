// File I/O on one metadata shard — the AdminOps data path: WriteFile
// with rack-aware live placement, ReadFile with on-the-fly
// reconstruction of a missing striped block (the degraded read), and
// RaidFile, which erasure-codes a file's blocks into stripes.
package hdfs

import (
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/ec"
	"repro/internal/engine"
)

// WriteFile stores data as a new file with the configured replication.
func (c *metaShard) WriteFile(name string, data []byte) error {
	if len(data) == 0 {
		return errors.New("hdfs: empty file")
	}
	c.lockMeta()
	defer c.mu.Unlock()
	if _, ok := c.files[name]; ok {
		return fmt.Errorf("%w: %s", ErrFileExists, name)
	}
	fm := &fileMeta{name: name, size: int64(len(data))}
	fm.lastAccess.Store(int64(c.now))
	for off := int64(0); off < int64(len(data)); off += c.cfg.BlockSize {
		end := off + c.cfg.BlockSize
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		id := c.nextBlock
		c.nextBlock += BlockID(c.idStride)
		bm := &blockMeta{
			id:       id,
			file:     name,
			index:    len(fm.blocks),
			size:     end - off,
			checksum: crc32.ChecksumIEEE(data[off:end]),
			stripe:   noStripe,
		}
		machines, err := c.placeLiveLocked(c.cfg.Replication)
		if err != nil {
			return c.rollbackWriteLocked(fm, err)
		}
		for i := range machines {
			m, err := c.storePlacedLocked(machines, i, id, data[off:end])
			if err != nil {
				return c.rollbackWriteLocked(fm, err)
			}
			bm.locations = append(bm.locations, m)
		}
		c.blocks[id] = bm
		fm.blocks = append(fm.blocks, id)
	}
	c.files[name] = fm
	return nil
}

// rollbackWriteLocked undoes a partial WriteFile: blocks already placed
// for the never-published file are removed from the namespace and from
// their holders, so a failed write leaves no orphan metadata for the
// fixer to chase.
func (c *metaShard) rollbackWriteLocked(fm *fileMeta, cause error) error {
	for _, id := range fm.blocks {
		bm := c.blocks[id]
		for _, m := range bm.locations {
			c.nodes[m].delete(id)
		}
		delete(c.blocks, id)
	}
	return cause
}

// placeLiveLocked selects n machines on distinct racks, substituting a
// live machine (on an unused rack where possible) for any dead pick —
// the namenode never targets a machine that missed its heartbeat.
func (c *metaShard) placeLiveLocked(n int) ([]int, error) {
	placement, err := c.placeStripe(n)
	if err != nil {
		return nil, err
	}
	used := make(map[int]bool, n)
	for _, m := range placement {
		used[c.cfg.Topology.RackOf(m)] = true
	}
	for i, m := range placement {
		if c.nodes[m].isAlive() {
			continue
		}
		delete(used, c.cfg.Topology.RackOf(m))
		alt, err := c.pickLiveMachine(used)
		if err != nil {
			return nil, err
		}
		placement[i] = alt
		used[c.cfg.Topology.RackOf(alt)] = true
	}
	return placement, nil
}

// storeReplaceAttempts bounds how often storePlacedLocked re-places one
// replica whose machine died between placement and store.
const storeReplaceAttempts = 3

// storePlacedLocked stores a block on placement[i] and returns the
// machine that took it. placeLiveLocked picked placement[i] alive, but
// the shards share their datanodes while a machine-state transition
// takes each shard's metadata lock in turn (Cluster.transition): under
// this shard's lock the machine can still die to a FailMachine holding
// another's. A store refused with ErrNodeDown therefore re-places that
// one replica — on a live machine off the racks the rest of the
// placement uses, the rule placeLiveLocked applies — and records the
// move in placement, instead of failing the write.
func (c *metaShard) storePlacedLocked(placement []int, i int, id BlockID, data []byte) (int, error) {
	for attempt := 0; ; attempt++ {
		err := c.nodes[placement[i]].storeBlock(id, data)
		if !errors.Is(err, ErrNodeDown) || attempt == storeReplaceAttempts {
			return placement[i], err
		}
		used := make(map[int]bool, len(placement))
		for j, m := range placement {
			if j != i {
				used[c.cfg.Topology.RackOf(m)] = true
			}
		}
		alt, err := c.pickLiveMachine(used)
		if err != nil {
			return placement[i], err
		}
		placement[i] = alt
	}
}

// ReadFile returns the file's contents, reconstructing missing striped
// blocks on the fly (degraded read) and charging that traffic to the
// network fabric. Reads of healthy replicas are not charged: the paper
// measures recovery traffic, not foreground traffic. Reads hold the
// metadata lock in read mode, so any number of healthy reads and
// degraded reconstructions run in parallel.
func (c *metaShard) ReadFile(name string) ([]byte, error) {
	c.rlockMeta()
	defer c.mu.RUnlock()
	fm, ok := c.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrFileNotFound, name)
	}
	fm.lastAccess.Store(int64(c.now))
	out := make([]byte, 0, fm.size)
	for _, id := range fm.blocks {
		buf, err := c.readBlockLocked(c.blocks[id])
		if err != nil {
			return nil, err
		}
		out = append(out, buf...)
	}
	return out, nil
}

// readBlockLocked returns one block's payload: live replicas are tried
// in random order (so read load spreads across holders); when none
// survives — or a holder dies between the liveness check and the read —
// the block is reconstructed at a live machine on a rack the stripe
// does not occupy, so every helper read crosses racks, the same
// accounting as a fixer repair. Callers hold c.mu in at least read
// mode.
func (c *metaShard) readBlockLocked(bm *blockMeta) ([]byte, error) {
	live := c.liveLocations(bm)
	for len(live) > 0 {
		i := 0
		if len(live) > 1 {
			i = c.randIntn(len(live))
		}
		buf, err := c.nodes[live[i]].readRange(bm.id, 0, bm.size)
		if err == nil {
			return buf, nil
		}
		live = append(live[:i], live[i+1:]...)
	}
	if bm.stripe == noStripe {
		return nil, fmt.Errorf("%w: block %d of %s", ErrBlockLost, bm.id, bm.file)
	}
	reader, err := c.pickLiveMachine(c.excludeRacksLocked(c.stripes[bm.stripe], bm.id))
	if err != nil {
		return nil, err
	}
	buf, err := c.reconstructBlockLocked(bm, reader)
	if err != nil {
		return nil, err
	}
	return buf[:bm.size], nil
}

// pickLiveMachine returns a random live machine, avoiding racks in the
// exclusion set when possible. It touches only the rng (behind rngMu)
// and the per-node liveness flags, so it is callable from read paths.
func (c *metaShard) pickLiveMachine(excludeRacks map[int]bool) (int, error) {
	if m, err := c.pickReplacement(excludeRacks); err == nil && c.nodes[m].isAlive() {
		return m, nil
	}
	// Retry a bounded number of times, then scan.
	for i := 0; i < 32; i++ {
		m := c.randIntn(len(c.nodes))
		if c.nodes[m].isAlive() && !excludeRacks[c.cfg.Topology.RackOf(m)] {
			return m, nil
		}
	}
	for m := range c.nodes {
		if c.nodes[m].isAlive() && !excludeRacks[c.cfg.Topology.RackOf(m)] {
			return m, nil
		}
	}
	for m := range c.nodes {
		if c.nodes[m].isAlive() {
			return m, nil
		}
	}
	return 0, errors.New("hdfs: no live machines")
}

// RaidFile erasure-codes a file in place (the RaidNode path): its blocks
// are grouped into stripes of k, parity blocks are computed at a random
// encoder machine, every block of each stripe is re-placed on its own
// rack, and the data blocks drop to a single replica. Short tail
// stripes are padded with phantom all-zero blocks, exactly as HDFS-RAID
// pads files whose block count is not a multiple of k.
func (c *metaShard) RaidFile(name string) error {
	c.lockMeta()
	defer c.mu.Unlock()
	fm, ok := c.files[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrFileNotFound, name)
	}
	if fm.raided {
		return fmt.Errorf("%w: %s", ErrAlreadyRaided, name)
	}
	k := c.cfg.Code.DataShards()
	for start := 0; start < len(fm.blocks); start += k {
		end := start + k
		if end > len(fm.blocks) {
			end = len(fm.blocks)
		}
		group := fm.blocks[start:end]
		if err := c.raidStripeLocked(group); err != nil {
			return fmt.Errorf("hdfs: raiding %s blocks [%d, %d): %w", name, start, end, err)
		}
	}
	fm.raided = true
	return nil
}

// raidStripeLocked encodes one group of <= k data blocks into a stripe.
func (c *metaShard) raidStripeLocked(group []BlockID) error {
	code := c.cfg.Code
	k := code.DataShards()
	width := code.TotalShards()

	// Shard size: the largest block in the group, rounded up to the
	// codec's alignment. Shorter blocks are zero-padded for encoding
	// but stored at their logical size.
	var shardSize int64
	for _, id := range group {
		if s := c.blocks[id].size; s > shardSize {
			shardSize = s
		}
	}
	if align := int64(code.MinShardSize()); shardSize%align != 0 {
		shardSize += align - shardSize%align
	}

	// Encoder machine reads every data block (cross-rack traffic: the
	// raid encoding itself is not free, it is simply not the quantity
	// the paper measures; tests reset counters after raiding).
	encoder, err := c.pickLiveMachine(nil)
	if err != nil {
		return err
	}
	shards := make([][]byte, width)
	for i, id := range group {
		bm := c.blocks[id]
		live := c.liveLocations(bm)
		if len(live) == 0 {
			return fmt.Errorf("%w: block %d", ErrBlockLost, id)
		}
		src := live[0]
		buf, err := c.nodes[src].readRange(id, 0, shardSize)
		if err != nil {
			return err
		}
		if err := c.net.Transfer(src, encoder, shardSize); err != nil {
			return err
		}
		shards[i] = buf
	}
	// Phantom padding for a short tail stripe.
	for i := len(group); i < k; i++ {
		shards[i] = make([]byte, shardSize)
	}
	if err := code.Encode(shards); err != nil {
		return err
	}

	// Place the stripe: one rack per block, live machines only.
	placement, err := c.placeLiveLocked(width)
	if err != nil {
		return err
	}

	sid := c.nextStripe
	c.nextStripe += StripeID(c.idStride)
	sm := &stripeMeta{id: sid, shardSize: shardSize, blocks: make([]BlockID, width)}
	for pos := range sm.blocks {
		sm.blocks[pos] = -1
	}

	// Move data blocks onto their stripe racks and drop extra replicas.
	for i, id := range group {
		bm := c.blocks[id]
		dst := placement[i]
		if !containsInt(bm.locations, dst) {
			live := c.liveLocations(bm)
			if len(live) == 0 {
				return fmt.Errorf("%w: block %d", ErrBlockLost, id)
			}
			src := live[0]
			buf, err := c.nodes[src].readRange(id, 0, bm.size)
			if err != nil {
				return err
			}
			if dst, err = c.storePlacedLocked(placement, i, id, buf); err != nil {
				return err
			}
			if err := c.net.Transfer(src, dst, bm.size); err != nil {
				return err
			}
		}
		for _, m := range bm.locations {
			if m != dst {
				c.nodes[m].delete(id)
			}
		}
		bm.locations = []int{dst}
		bm.stripe = sid
		bm.stripePos = i
		sm.blocks[i] = id
	}

	// Store parity blocks.
	for j := 0; j < width-k; j++ {
		pos := k + j
		id := c.nextBlock
		c.nextBlock += BlockID(c.idStride)
		dst, err := c.storePlacedLocked(placement, pos, id, shards[pos])
		if err != nil {
			return err
		}
		if err := c.net.Transfer(encoder, dst, shardSize); err != nil {
			return err
		}
		bm := &blockMeta{
			id:        id,
			file:      "",
			index:     j,
			size:      shardSize,
			checksum:  crc32.ChecksumIEEE(shards[pos]),
			locations: []int{dst},
			stripe:    sid,
			stripePos: pos,
		}
		c.blocks[id] = bm
		sm.blocks[pos] = id
	}
	c.stripes[sid] = sm
	return nil
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// stripeAliveLocked reports per-position availability: phantom
// positions are always available (they are known zeros), real positions
// require a live holder. Callers hold c.mu in at least read mode for
// every invocation of the returned func.
func (c *metaShard) stripeAliveLocked(sm *stripeMeta) ec.AliveFunc {
	return func(pos int) bool {
		if pos < 0 || pos >= len(sm.blocks) {
			return false
		}
		id := sm.blocks[pos]
		if id < 0 {
			return true // phantom zero block
		}
		return c.hasLiveLocation(c.blocks[id])
	}
}

// stripeFetchLocked builds the codec fetch function for a stripe:
// phantom positions yield zeros for free; real positions read from a
// random live holder and charge the transfer to the destination
// machine. Each fetch reads the range the plan asks for — not the
// helper's whole block — once, into a shard-sized buffer drawn from
// scratch (the fixer passes its worker's arena; nil allocates), and
// returns a view of it — the codec only reads fetched
// buffers and never returns one, so the arena can be reset as soon as
// the repair returns. record, when non-nil, observes every (src, bytes)
// wire transfer — the contention model replays them through the netsim
// fabric. It is invoked from the worker executing the stripe's repair
// job, never concurrently for one stripe. Callers hold c.mu in at
// least read mode for every invocation of the returned func.
func (c *metaShard) stripeFetchLocked(sm *stripeMeta, dst int, record func(src int, bytes int64), scratch *engine.Scratch) ec.FetchFunc {
	return func(req ec.ReadRequest) ([]byte, error) {
		id := sm.blocks[req.Shard]
		if id < 0 {
			return make([]byte, req.Length), nil
		}
		bm := c.blocks[id]
		live := c.liveLocations(bm)
		if len(live) == 0 {
			return nil, fmt.Errorf("%w: stripe %d position %d", ErrBlockLost, sm.id, req.Shard)
		}
		src := c.pickReplica(live)
		var into []byte
		if scratch != nil {
			into = scratch.Bytes(int(sm.shardSize))
		}
		buf, err := c.nodes[src].readRangeInto(id, req.Offset, req.Length, into)
		if err != nil {
			return nil, err
		}
		if err := c.net.Transfer(src, dst, req.Length); err != nil {
			return nil, err
		}
		if record != nil {
			record(src, req.Length)
		}
		return buf, nil
	}
}

// reconstructBlockLocked rebuilds a striped block's full shard at the
// given machine, charging all fetches to the network. The result has
// shardSize bytes; callers truncate to the block's logical size.
//
// The target position is FORCED erased for the repair plan regardless
// of what the metadata thinks: the caller only lands here after every
// listed replica failed to serve (dead mid-read, or the store refused
// the bytes on checksum grounds), and the codec rejects repairing a
// position its alive-view reports present. A replica that cannot be
// read is a replica that does not exist.
func (c *metaShard) reconstructBlockLocked(bm *blockMeta, at int) ([]byte, error) {
	if bm.stripe == noStripe {
		return nil, fmt.Errorf("%w: block %d is not striped", ErrBlockLost, bm.id)
	}
	sm := c.stripes[bm.stripe]
	alive := c.stripeAliveLocked(sm)
	aliveExceptTarget := func(pos int) bool {
		if pos == bm.stripePos {
			return false
		}
		return alive(pos)
	}
	return c.cfg.Code.ExecuteRepair(bm.stripePos, sm.shardSize, aliveExceptTarget, c.stripeFetchLocked(sm, at, nil, nil))
}
