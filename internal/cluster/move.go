package cluster

import "sort"

// Every collective that moves the state — placement remaps, Canonicalize,
// the four-step FFT's transposes, Gather under a drifted placement — is a
// permutation of index bits: destination position p reads source position
// srcOf[p], so the amplitude at global destination index j (shard offset |
// node<<L) comes from source index Σ bit(j, p) << srcOf[p]. This file is
// the one kernel that performs such a move, and the closed-form count of
// what it puts on the network.

// moveTileLog is log2 of the tile side of the tiled regime: a tile of up
// to 2^moveTileLog rows of 2^moveTileLog amplitudes (16 KiB) is staged on
// the stack, and rows of 512 bytes (eight cache lines) are the unit in
// which memory is touched — the same shape as fft's blocked bit reversal.
const moveTileLog = 5

const moveTileSide = 1 << moveTileLog

// moveTile is the stack buffer one tile is staged in.
type moveTile [moveTileSide * moveTileSide]complex128

// spreadBits returns Σ bit(x, i) << to[i], one bit at a time: the bit
// scatter the tables below tabulate. Bits of x at or above len(to) are
// dropped.
func spreadBits(x uint64, to []uint) uint64 {
	var v uint64
	for i, p := range to {
		v |= (x >> uint(i) & 1) << p
	}
	return v
}

// scatterTables returns byte-chunked lookup tables for spreadBits(·, to):
// one lookup and OR per 8 bits of x (see scatterBits).
func scatterTables(to []uint) [][256]uint64 {
	tabs := make([][256]uint64, (len(to)+7)/8)
	for k := range tabs {
		chunk := to[8*k : min(8*k+8, len(to))]
		for b := range tabs[k] {
			tabs[k][b] = spreadBits(uint64(b), chunk)
		}
	}
	return tabs
}

// scatterBits applies the scatter encoded by scatterTables to x.
func scatterBits(tabs [][256]uint64, x uint64) uint64 {
	var v uint64
	for k := range tabs {
		v |= tabs[k][(x>>(8*k))&255]
	}
	return v
}

// movePlan is a bit-permutation move prepared for execution: the regime
// and the index tables, built once per collective so that fill allocates
// nothing.
//
// Run regime (rows == 0): the low runLog positions are unchanged, so the
// state moves in runs of 2^runLog contiguous amplitudes; units counts the
// runs and srcTabs maps a run's number to its source index.
//
// Tiled regime (rows > 0): low positions move, so neither side is
// contiguous beyond a single amplitude under a naive sweep. The tile is
// the set T of destination positions made of the low runLog ones and the
// ones feeding the source's low runLog positions: for fixed values of the
// remaining positions the 2^|T| amplitudes are `rows` contiguous rows of
// 2^runLog on the destination side and as many contiguous rows on the
// source side. units counts the tiles; dstTabs and srcTabs map a tile's
// number to its base index on either side, dstRow and srcRow add a row's
// offset, and placeHigh|placeLow is where in the staged tile (destination
// order) the amplitude of a source row lands.
type movePlan struct {
	localBits uint
	runLog    uint
	units     uint64
	srcTabs   [][256]uint64

	rows      int
	dstTabs   [][256]uint64
	srcRow    [moveTileSide]uint64
	dstRow    [moveTileSide]uint64
	placeHigh [moveTileSide]uint16
	placeLow  [moveTileSide]uint16
}

// planMove prepares the move "destination position p reads source
// position srcOf[p]" over len(srcOf) index bits of which the low localBits
// address a shard. srcOf must be a permutation.
func planMove(srcOf []uint, localBits uint) *movePlan {
	n := uint(len(srcOf))
	m := &movePlan{localBits: localBits}
	var fixed uint
	for fixed < localBits && srcOf[fixed] == fixed {
		fixed++
	}
	if fixed >= 2 || fixed == localBits {
		m.runLog = fixed
		m.units = uint64(1) << (n - fixed)
		m.srcTabs = scatterTables(srcOf[fixed:])
		return m
	}

	t := min(moveTileLog, localBits)
	m.runLog = t
	dstOf := make([]uint, n)
	for p, s := range srcOf {
		dstOf[s] = uint(p)
	}
	// T as a bit set, then ascending; tileBit[p] is p's rank in T, the bit
	// of the staged tile's index that destination position p drives.
	var inTile uint64
	for p := uint(0); p < t; p++ {
		inTile |= 1<<p | 1<<dstOf[p]
	}
	var tile, rest []uint
	tileBit := make([]uint, n)
	for p := uint(0); p < n; p++ {
		if inTile&(1<<p) != 0 {
			tileBit[p] = uint(len(tile))
			tile = append(tile, p)
		} else {
			rest = append(rest, p)
		}
	}
	// Tile number bit i drives position rest[i]. Ordering by the larger of
	// a position's two strides keeps neighbouring tiles close on both
	// sides at once (Morton order for a transpose), where ascending
	// destination order would jump the source by its largest stride from
	// every tile to the next.
	sort.Slice(rest, func(a, b int) bool {
		return max(rest[a], srcOf[rest[a]]) < max(rest[b], srcOf[rest[b]])
	})
	m.units = uint64(1) << uint(len(rest))
	m.rows = 1 << (uint(len(tile)) - t)
	m.dstTabs = scatterTables(rest)
	restSrc := make([]uint, len(rest))
	for i, p := range rest {
		restSrc[i] = srcOf[p]
	}
	m.srcTabs = scatterTables(restSrc)

	// The tile's source positions above the row, ascending — bit i of a
	// source row number is position srcHigh[i] — and where in the staged
	// tile each source position of the tile lands.
	var srcHigh, placeOfHigh []uint
	for s := t; s < n; s++ {
		if inTile&(1<<dstOf[s]) != 0 {
			srcHigh = append(srcHigh, s)
			placeOfHigh = append(placeOfHigh, tileBit[dstOf[s]])
		}
	}
	placeOfLow := make([]uint, t)
	for s := range placeOfLow {
		placeOfLow[s] = tileBit[dstOf[s]]
	}
	for r := 0; r < m.rows; r++ {
		m.dstRow[r] = spreadBits(uint64(r), tile[t:])
		m.srcRow[r] = spreadBits(uint64(r), srcHigh)
		m.placeHigh[r] = uint16(spreadBits(uint64(r), placeOfHigh))
	}
	for y := 0; y < 1<<t; y++ {
		m.placeLow[y] = uint16(spreadBits(uint64(y), placeOfLow))
	}
	return m
}

// fill performs worker w's share (of `workers` equal shares) of the move
// from the src shards into the dst shards. Shares are disjoint on the
// destination side, so the workers of one move may run concurrently. This
// is the loop that moves the entire state once per collective round: it
// must not allocate.
//
//qemu:hotpath
func (m *movePlan) fill(dst, src [][]complex128, w, workers int) {
	per := max(m.units/uint64(workers), 1)
	lo := uint64(w) * per
	hi := min(lo+per, m.units)
	if m.rows == 0 {
		m.copyRuns(dst, src, lo, hi)
		return
	}
	m.moveTiles(dst, src, lo, hi)
}

// copyRuns moves runs [lo, hi) of the run regime: one source-index
// computation and one copy per run, a whole shard at a time when only
// node positions move.
//
//qemu:hotpath
func (m *movePlan) copyRuns(dst, src [][]complex128, lo, hi uint64) {
	L := m.localBits
	mask := uint64(1)<<L - 1
	run := uint64(1) << m.runLog
	for r := lo; r < hi; r++ {
		j := r << m.runLog
		i := scatterBits(m.srcTabs, r)
		copy(dst[j>>L][j&mask:][:run], src[i>>L][i&mask:][:run])
	}
}

// moveTiles moves tiles [lo, hi) of the tiled regime: each is read row by
// row from the source into the staged tile, permuted on the way, and
// written row by row to the destination, so the scattered accesses all
// land in the stack buffer.
//
//qemu:hotpath
func (m *movePlan) moveTiles(dst, src [][]complex128, lo, hi uint64) {
	L := m.localBits
	mask := uint64(1)<<L - 1
	rowLen := uint64(1) << m.runLog
	placeLow := m.placeLow[:rowLen]
	var buf moveTile
	for o := lo; o < hi; o++ {
		sb := scatterBits(m.srcTabs, o)
		db := scatterBits(m.dstTabs, o)
		for u := 0; u < m.rows; u++ {
			g := sb | m.srcRow[u]
			row := src[g>>L][g&mask:][:rowLen]
			high := m.placeHigh[u]
			for y, a := range row {
				buf[(high|placeLow[y])&(uint16(len(buf))-1)] = a
			}
		}
		for r := 0; r < m.rows; r++ {
			g := db | m.dstRow[r]
			copy(dst[g>>L][g&mask:][:rowLen], buf[uint64(r)<<m.runLog:][:rowLen])
		}
	}
}

// moveTraffic counts what the move "destination position p reads source
// position srcOf[p]" puts on the network of 2^(len(srcOf)-localBits)
// nodes: the amplitudes that change nodes and the (src, dst) node pairs,
// src != dst, that exchange any — exactly what counting amplitude by
// amplitude gives.
//
// A source node bit fed by a destination node position is fixed per
// destination node; one fed by a local position takes both values within
// every destination shard. With f of the latter, a destination node hears
// from 2^f source nodes, 2^(L-f) amplitudes each, and is itself one of
// them exactly when its fixed source bits agree with its own.
func moveTraffic(srcOf []uint, localBits uint) (crossing, pairs uint64) {
	nodes := uint64(1) << (uint(len(srcOf)) - localBits)
	// agree lists, as bits of the node number, each fixed source node bit
	// beside the destination node bit it reads; free counts the others.
	var agree [][2]uint
	var free uint
	for p, s := range srcOf {
		switch {
		case s < localBits:
		case uint(p) < localBits:
			free++
		default:
			agree = append(agree, [2]uint{s - localBits, uint(p) - localBits})
		}
	}
	senders := uint64(1) << free
	perSender := uint64(1) << (localBits - free)
	for d := uint64(0); d < nodes; d++ {
		heard := senders
		self := true
		for _, a := range agree {
			self = self && d>>a[0]&1 == d>>a[1]&1
		}
		if self {
			heard--
		}
		crossing += heard * perSender
		pairs += heard
	}
	return crossing, pairs
}

// liveShards returns the nodes' current amplitude slices.
func (c *Cluster) liveShards() [][]complex128 {
	shards := make([][]complex128, c.P)
	for p := range shards {
		shards[p] = c.shard(p)
	}
	return shards
}

// moveBits fills the dst shards from the live ones under the bit map
// srcOf, one goroutine per node.
func (c *Cluster) moveBits(dst [][]complex128, srcOf []uint) {
	plan := planMove(srcOf, c.L)
	src := c.liveShards()
	c.eachNode(func(w int) { plan.fill(dst, src, w, c.P) })
}

// permuteBits is the all-to-all collective: the state is moved under the
// bit map srcOf into the retired scratch set, which becomes the live one,
// and the network is charged for every amplitude that changed nodes,
// coalesced into one message per communicating (src, dst) pair — one
// round, however the bits moved.
func (c *Cluster) permuteBits(srcOf []uint) {
	next := c.grabScratch() // every destination element is assigned
	c.moveBits(next, srcOf)
	c.installShards(next)
	crossing, pairs := moveTraffic(srcOf, c.L)
	c.Stats.BytesSent.Add(crossing * 16)
	c.Stats.Messages.Add(pairs)
	c.Stats.AllToAlls.Add(1)
	c.Stats.Rounds.Add(1)
}
