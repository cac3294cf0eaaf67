// File I/O: WriteFile with rack-aware live
// placement, ReadFile with on-the-fly reconstruction of a missing
// striped block (the degraded read), and RaidFile, which erasure-codes
// a file's blocks into stripes.
package hdfs

import (
	"errors"
	"fmt"

	"repro/internal/crc"
)

// WriteFile stores data as a new file with the configured replication.
//
// It runs in the three phases of every mutation that moves bytes. The
// plan, under the metadata lock, claims the name and draws every block
// id and placement, in the order a serial run always has. The replicas
// are checksummed and stored with the lock released. The commit, under
// the lock again, publishes the file and its blocks in one step: no
// metadata query sees a half-written file. A failure deletes every
// replica the write stored and publishes nothing.
func (c *Cluster) WriteFile(name string, data []byte) error {
	if len(data) == 0 {
		return errors.New("hdfs: empty file")
	}
	c.lockMeta()
	c.awaitLocked(name)
	if _, ok := c.files[name]; ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrFileExists, name)
	}
	var blocks []*blockMeta
	var placements [][]int
	for off := int64(0); off < int64(len(data)); off += c.cfg.BlockSize {
		id := c.nextBlock
		c.nextBlock++
		machines, err := c.placeLiveLocked(c.cfg.Replication)
		if err != nil {
			c.mu.Unlock()
			return err
		}
		blocks = append(blocks, &blockMeta{
			id:     id,
			file:   name,
			index:  len(blocks),
			size:   min(c.cfg.BlockSize, int64(len(data))-off),
			stripe: noStripe,
		})
		placements = append(placements, machines)
	}
	c.claimLocked(name)
	c.mu.Unlock()

	var stored []replica
	for i, bm := range blocks {
		off := int64(i) * c.cfg.BlockSize
		payload := data[off : off+bm.size]
		for r := range placements[i] {
			m, err := c.storePlaced(placements[i], r, bm.id, payload)
			if err != nil {
				return c.abandon(name, stored, err)
			}
			if r == 0 {
				// The first replica's store checksummed the payload.
				bm.checksum = c.nodes[m].checksum(bm.id, payload)
			}
			stored = append(stored, replica{m, bm.id})
		}
		bm.locations = placements[i]
	}

	c.lockMeta()
	fm := &fileMeta{name: name, size: int64(len(data))}
	fm.lastAccess.Store(int64(c.now))
	for _, bm := range blocks {
		c.blocks[bm.id] = bm
		fm.blocks = append(fm.blocks, bm.id)
	}
	c.files[name] = fm
	c.releaseLocked(name)
	c.mu.Unlock()
	return nil
}

// awaitLocked waits until no WriteFile or RaidFile of name is in
// flight, releasing the lock while it waits: the operation in flight
// decides what the caller then finds (the file or its absence, raided
// or not). Callers hold c.mu exclusively, and hold it again on return.
func (c *Cluster) awaitLocked(name string) {
	for {
		done, busy := c.inflight[name]
		if !busy {
			return
		}
		c.mu.Unlock()
		<-done
		c.lockMeta()
	}
}

// claimLocked marks name in flight; releaseLocked ends the claim and
// wakes every operation awaiting it. Callers hold c.mu exclusively.
func (c *Cluster) claimLocked(name string) { c.inflight[name] = make(chan struct{}) }

func (c *Cluster) releaseLocked(name string) {
	close(c.inflight[name])
	delete(c.inflight, name)
}

// replica is one copy of a block on one machine.
type replica struct {
	machine int
	id      BlockID
}

// abandon ends a write or raid that failed before its commit: it
// deletes what the operation stored, then releases the claim, so an
// operation awaiting the name finds the stores as they were.
func (c *Cluster) abandon(name string, stored []replica, cause error) error {
	c.dropUnrecorded(stored)
	c.lockMeta()
	c.releaseLocked(name)
	c.mu.Unlock()
	return cause
}

// dropUnrecorded deletes each replica the metadata does not record: what
// a failed write or raid stored, or the copies a committed raid dropped.
// It holds the read lock across the deletes, so reads proceed while no
// fixer can record one of these replicas between the check and the
// delete.
func (c *Cluster) dropUnrecorded(replicas []replica) {
	if len(replicas) == 0 {
		return
	}
	c.rlockMeta()
	defer c.mu.RUnlock()
	for _, r := range replicas {
		if bm, ok := c.blocks[r.id]; ok && containsInt(bm.locations, r.machine) {
			continue
		}
		c.nodes[r.machine].delete(r.id)
	}
}

// placeLiveLocked selects n machines on distinct racks, substituting a
// live machine (on an unused rack where possible) for any dead pick —
// the namenode never targets a machine that missed its heartbeat.
func (c *Cluster) placeLiveLocked(n int) ([]int, error) {
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

// storeReplaceAttempts bounds how often storePlaced re-places one
// replica whose machine died between placement and store.
const storeReplaceAttempts = 3

// storePlaced stores a block on placement[i] and returns the machine
// that took it. placeLiveLocked picked placement[i] alive, but writes
// and raids store with the metadata lock released, so the machine can
// die before the store reaches it. A store refused with ErrNodeDown
// therefore re-places that one replica — on a live machine off the
// racks the rest of the placement uses, the rule placeLiveLocked
// applies — and records the move in placement, instead of failing the
// write. It reads no metadata: callers need not hold the lock.
func (c *Cluster) storePlaced(placement []int, i int, id BlockID, data []byte) (int, error) {
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
func (c *Cluster) ReadFile(name string) ([]byte, error) {
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
func (c *Cluster) readBlockLocked(bm *blockMeta) ([]byte, error) {
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
	return c.reconstructBlockLocked(bm)
}

// pickLiveMachine returns a random live machine, avoiding racks in the
// exclusion set when possible. It touches only the rng (behind rngMu)
// and the per-node liveness flags, so it is callable from read paths.
func (c *Cluster) pickLiveMachine(excludeRacks map[int]bool) (int, error) {
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
// encoder machine, each stripe spans one rack per block, and the data
// blocks drop to a single replica, kept where one already lies when its
// rack is free (HDFS-RAID lowers replication by deleting replicas).
// Short tail stripes are padded with phantom all-zero blocks, exactly
// as HDFS-RAID pads files whose block count is not a multiple of k.
//
// It runs in WriteFile's three phases. The plan, under the lock, draws
// each stripe's encoder, placement and ids. The I/O, with the lock
// released, reads each group once, encodes it, copies the rare data
// block that moves from the buffer the encoder read, and stores the
// parity.
// The commit publishes every stripe of the file at once, and only then
// are the replicas the raid drops deleted: a raid that fails leaves the
// file as it was, replicated and in no stripe.
func (c *Cluster) RaidFile(name string) error {
	c.lockMeta()
	c.awaitLocked(name)
	fm, ok := c.files[name]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrFileNotFound, name)
	}
	if fm.raided {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrAlreadyRaided, name)
	}
	k := c.cfg.Code.DataShards()
	var stripes []*stripePlan
	for start := 0; start < len(fm.blocks); start += k {
		end := min(start+k, len(fm.blocks))
		p, err := c.planStripeLocked(fm.blocks[start:end])
		if err != nil {
			c.mu.Unlock()
			return raidError(name, start, end, err)
		}
		stripes = append(stripes, p)
	}
	c.claimLocked(name)
	c.mu.Unlock()

	var stored []replica
	for i, p := range stripes {
		s, err := c.encodeStripe(p)
		stored = append(stored, s...)
		if err != nil {
			return c.abandon(name, stored, raidError(name, i*k, i*k+len(p.data), err))
		}
	}

	c.lockMeta()
	var dropped []replica
	for _, p := range stripes {
		dropped = c.commitStripeLocked(p, dropped)
	}
	fm.raided = true
	c.releaseLocked(name)
	c.mu.Unlock()
	c.dropUnrecorded(dropped)
	return nil
}

// raidError names the blocks of the file a raid failed on.
func raidError(name string, start, end int, err error) error {
	return fmt.Errorf("hdfs: raiding %s blocks [%d, %d): %w", name, start, end, err)
}

// stripePlan is one stripe of a raid, drawn under the lock and carried
// through the I/O to the commit. Nothing in it is published before the
// commit.
type stripePlan struct {
	sm   *stripeMeta
	data []*blockMeta // the group, by stripe position
	// sources are each data block's live holders at planning; move marks
	// the blocks whose stripe machine holds no replica yet.
	sources [][]int
	move    []bool
	parity  []*blockMeta
	encoder int
	// placement is one machine per stripe position, one rack each.
	placement []int
}

// planStripeLocked draws one group of <= k data blocks' stripe: the
// encoder, the placement, the stripe id and the parity ids. The rng is
// drawn for the encoder, then for each position, in order, that keeps
// no replica in place, so a seeded run repeats.
func (c *Cluster) planStripeLocked(group []BlockID) (*stripePlan, error) {
	code := c.cfg.Code
	k := code.DataShards()
	width := code.TotalShards()
	p := &stripePlan{
		data:    make([]*blockMeta, len(group)),
		sources: make([][]int, len(group)),
		move:    make([]bool, len(group)),
	}

	// Shard size: the largest block in the group, rounded up to the
	// codec's alignment. Shorter blocks are zero-padded for encoding
	// but stored at their logical size.
	var shardSize int64
	for i, id := range group {
		p.data[i] = c.blocks[id]
		shardSize = max(shardSize, p.data[i].size)
	}
	if align := int64(code.MinShardSize()); shardSize%align != 0 {
		shardSize += align - shardSize%align
	}

	var err error
	if p.encoder, err = c.pickLiveMachine(nil); err != nil {
		return nil, err
	}
	for i, bm := range p.data {
		if p.sources[i] = c.liveLocations(bm); len(p.sources[i]) == 0 {
			return nil, fmt.Errorf("%w: block %d", ErrBlockLost, bm.id)
		}
	}
	// Place the stripe on distinct racks, live machines only. A data
	// block stays on the first of its live holders whose rack the
	// stripe does not use yet; one with no such holder, and every
	// phantom and parity position, takes a fresh live machine off the
	// used racks.
	p.placement = make([]int, width)
	used := make(map[int]bool, width)
	for pos := range p.placement {
		m := -1
		if pos < len(p.data) {
			for _, h := range p.sources[pos] {
				if !used[c.cfg.Topology.RackOf(h)] {
					m = h
					break
				}
			}
		}
		if m < 0 {
			if m, err = c.pickLiveMachine(used); err != nil {
				return nil, err
			}
		}
		p.placement[pos] = m
		used[c.cfg.Topology.RackOf(m)] = true
	}
	for i, bm := range p.data {
		p.move[i] = !containsInt(bm.locations, p.placement[i])
	}

	sid := c.nextStripe
	c.nextStripe++
	p.sm = &stripeMeta{id: sid, shardSize: shardSize, blocks: make([]BlockID, width)}
	for pos := range p.sm.blocks {
		p.sm.blocks[pos] = -1
	}
	for i, id := range group {
		p.sm.blocks[i] = id
	}
	for j := 0; j < width-k; j++ {
		id := c.nextBlock
		c.nextBlock++
		p.sm.blocks[k+j] = id
		p.parity = append(p.parity, &blockMeta{id: id, index: j, size: shardSize, stripe: sid, stripePos: k + j})
	}
	return p, nil
}

// encodeStripe is one stripe's I/O, run with the metadata lock
// released: the encoder reads every data block once, encodes, and the
// blocks that move are copied to their stripe machines from the shards
// it read, then the parity is stored. It returns every replica it
// stored, which a failed raid deletes.
func (c *Cluster) encodeStripe(p *stripePlan) (stored []replica, err error) {
	code := c.cfg.Code
	shardSize := p.sm.shardSize
	shards := make([][]byte, code.TotalShards())
	src := make([]int, len(p.data))
	// The encoder's reads are cross-rack traffic: the raid encoding
	// itself is not free, it is simply not the quantity the paper
	// measures (tests reset counters after raiding).
	for i, bm := range p.data {
		if shards[i], src[i], err = c.readFromAny(p.sources[i], bm.id, shardSize); err != nil {
			return nil, err
		}
		if err := c.net.Transfer(src[i], p.encoder, shardSize); err != nil {
			return nil, err
		}
	}
	// Phantom padding for a short tail stripe.
	for i := len(p.data); i < code.DataShards(); i++ {
		shards[i] = make([]byte, shardSize)
	}
	if err := code.Encode(shards); err != nil {
		return nil, err
	}

	for i, bm := range p.data {
		// A block kept where it lies moves after all if that holder
		// died since the plan: storePlaced re-places it.
		if !p.move[i] && c.nodes[p.placement[i]].isAlive() {
			continue
		}
		dst, err := c.storePlaced(p.placement, i, bm.id, shards[i][:bm.size])
		if err != nil {
			return stored, err
		}
		stored = append(stored, replica{dst, bm.id})
		if err := c.net.Transfer(src[i], dst, bm.size); err != nil {
			return stored, err
		}
	}
	for _, pb := range p.parity {
		payload := shards[pb.stripePos]
		dst, err := c.storePlaced(p.placement, pb.stripePos, pb.id, payload)
		if err != nil {
			return stored, err
		}
		stored = append(stored, replica{dst, pb.id})
		if err := c.net.Transfer(p.encoder, dst, shardSize); err != nil {
			return stored, err
		}
		pb.checksum = c.nodes[dst].checksum(pb.id, payload)
		pb.locations = []int{dst}
	}
	return stored, nil
}

// readFromAny reads a block's first n bytes, zero-padded, from the
// first of holders that serves them, and returns the machine that did.
func (c *Cluster) readFromAny(holders []int, id BlockID, n int64) (buf []byte, from int, err error) {
	for _, m := range holders {
		if buf, err = c.nodes[m].readRange(id, 0, n); err == nil {
			return buf, m, nil
		}
	}
	return nil, -1, err
}

// commitStripeLocked publishes one encoded stripe: each data block now
// lives on its stripe machine alone, and the parity blocks and the
// stripe appear. It returns dropped extended by the replicas the data
// blocks no longer record, for deletion once the lock is released.
func (c *Cluster) commitStripeLocked(p *stripePlan, dropped []replica) []replica {
	for i, bm := range p.data {
		dst := p.placement[i]
		for _, m := range bm.locations {
			if m != dst {
				dropped = append(dropped, replica{m, bm.id})
			}
		}
		bm.locations = []int{dst}
		bm.stripe = p.sm.id
		bm.stripePos = i
	}
	for _, pb := range p.parity {
		c.blocks[pb.id] = pb
	}
	c.stripes[p.sm.id] = p.sm
	return dropped
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// reconstructBlockLocked rebuilds a striped block from a snapshot of
// its stripe (stripeDetailLocked), at a live machine off the racks of
// the stripe's other holders, charging all fetches to the network, and
// returns its bytes. It decodes as a fixer pass does, around a helper
// whose read fails its checksum (decodeAroundRot), and it never returns
// a rebuilt block whose CRC-32 differs from the block's — a helper
// served rot its store could not detect — but an error wrapping
// ErrCorruptReplica.
//
// The target position is FORCED erased in the snapshot regardless of
// what the metadata thinks: the caller only lands here after every
// listed replica failed to serve (dead mid-read, or the store refused
// the bytes on checksum grounds), and the codec rejects repairing a
// position its alive-view reports present. A replica that cannot be
// read is a replica that does not exist.
func (c *Cluster) reconstructBlockLocked(bm *blockMeta) ([]byte, error) {
	d := c.stripeDetailLocked(c.stripes[bm.stripe])
	d.Positions[bm.stripePos].Locations = nil
	at, err := c.pickLiveMachine(c.racksOf(d))
	if err != nil {
		return nil, err
	}
	//repolint:ignore lockdiscipline the in-process degraded read decodes under the read lock, which stalls writers but no reader; the serving path decodes in the client
	shards, err := c.decodeAroundRot(d, []int{bm.stripePos}, at, nil, nil)
	if err != nil {
		return nil, err
	}
	block := shards[bm.stripePos][:bm.size]
	if crc.Checksum(block) != bm.checksum {
		return nil, fmt.Errorf("%w: block %d rebuilt from its stripe does not match its checksum", ErrCorruptReplica, bm.id)
	}
	return block, nil
}
