package gpusim

import "slices"

// The cycle model of a CUDASW++ 2.0-style database search ([7] in the
// paper). Like CUDASW++ 2.0 it prices two kernels:
//
//   - an inter-task kernel for ordinary subjects: each thread aligns the
//     query to one subject; subjects are sorted by length and packed 32 to
//     a warp so lock-step divergence (a warp pays for its longest lane) is
//     minimized;
//   - an intra-task kernel for very long subjects (> intraThreshold),
//     where the whole device cooperates on one comparison in anti-diagonal
//     wavefronts at reduced efficiency.
//
// Its one fitted constant, cyclesPerCell, reproduces the paper's
// single-GPU CUDASW++ measurements (bench.PaperTable2).
const (
	// warpsPerBlock groups warps into thread blocks (4 = 128 threads).
	warpsPerBlock = 4
	// intraThreshold is the subject length above which the intra-task
	// kernel is used (CUDASW++ 2.0 uses 3072).
	intraThreshold = 3072
	// cyclesPerCell is the warp instruction cost of one DP cell per
	// thread. 20.2 cycles reproduces the paper's single-GPU CUDASW++
	// time (785.26 s on UniProt => ~24.8 GCUPS per C2050).
	cyclesPerCell = 20.2
	// intraEfficiency discounts the intra-task wavefront kernel for its
	// fill/drain and synchronization losses.
	intraEfficiency = 0.6
)

// TimingModel caches the launch geometry of one database so that per-query
// time predictions are O(1). It exploits the fact that every planned cycle
// cost is linear in the query length: the block-to-SM distribution (and
// therefore the slowest-SM cycle count) is invariant under scaling all
// blocks by the same factor, so one reference plan fixes the geometry.
type TimingModel struct {
	// SecondsPerQueryResidue is the kernel time contributed by each query
	// residue (slowest-SM cycles at qlen=1 divided by the clock).
	SecondsPerQueryResidue float64
	// FixedSeconds covers transfers and launch overheads, independent of
	// the query length.
	FixedSeconds float64
	// Launches is the number of kernel launches per search.
	Launches int
	// Subjects and TotalResidues describe the modeled database.
	Subjects      int
	TotalResidues int64
}

// Seconds predicts the simulated search time for a query of the given
// length against the modeled database.
func (m TimingModel) Seconds(queryLen int) float64 {
	if queryLen <= 0 {
		return 0
	}
	return m.SecondsPerQueryResidue*float64(queryLen) + m.FixedSeconds
}

// Model builds the timing model of a database, given its subject lengths,
// on the device. The reference plan uses a large qlen so integer
// truncation in the per-warp cycle counts is negligible. It panics on an
// invalid device configuration, which is a programmer error.
func Model(dev DeviceConfig, subjectLengths []int) TimingModel {
	if err := dev.Validate(); err != nil {
		panic(err)
	}
	const qlenRef = 4096
	tm := TimingModel{Subjects: len(subjectLengths)}
	for _, l := range subjectLengths {
		tm.TotalResidues += int64(l)
	}
	if len(subjectLengths) == 0 {
		return tm
	}
	kernelRef := 0.0
	for _, l := range plan(dev, qlenRef, subjectLengths) {
		kernelRef += dev.PredictKernelSec(l.blockCycles)
		tm.FixedSeconds += float64(l.transferBytes)/dev.PCIeBytesPerSec + dev.LaunchOverheadSec
		tm.Launches++
	}
	tm.SecondsPerQueryResidue = kernelRef / qlenRef
	return tm
}

// launch is one planned kernel launch: the cycles of each of its blocks
// in issue order, and the bytes it copies to the device.
type launch struct {
	blockCycles   []uint64
	transferBytes int64
}

// plan lays out the search of a qlen-residue query: subjects sorted
// ascending by length, chunked to half the device memory (the rule
// CUDASW++ applies to subjects, profile and result buffers), packed 32
// per warp and warpsPerBlock warps per block; then one intra-task launch
// per overlong subject. An empty subject costs nothing.
func plan(dev DeviceConfig, qlen int, lengths []int) []launch {
	maxChunkResidues := dev.MemBytes / 2
	var inter, intra []int
	for _, l := range lengths {
		switch {
		case l > intraThreshold:
			intra = append(intra, l)
		case l > 0:
			inter = append(inter, l)
		}
	}
	slices.Sort(inter)

	var plans []launch
	var cur launch
	var curResidues int64
	warps := 0 // in cur's last block
	flush := func() {
		if len(cur.blockCycles) > 0 {
			cur.transferBytes = curResidues + int64(qlen) + 4*int64(len(cur.blockCycles)*warpsPerBlock*dev.WarpSize)
			plans = append(plans, cur)
		}
		cur, curResidues, warps = launch{}, 0, 0
	}
	for w := 0; w < len(inter); w += dev.WarpSize {
		warp := inter[w:min(w+dev.WarpSize, len(inter))]
		var residues int64
		for _, l := range warp {
			residues += int64(l)
		}
		if curResidues > 0 && curResidues+residues > maxChunkResidues {
			flush()
		}
		curResidues += residues
		if warps == 0 {
			cur.blockCycles = append(cur.blockCycles, 0)
		}
		// A warp pays for its longest lane, the last of a sorted warp.
		cur.blockCycles[len(cur.blockCycles)-1] += uint64(float64(warp[len(warp)-1]) * float64(qlen) * cyclesPerCell)
		warps = (warps + 1) % warpsPerBlock
	}
	flush()
	// Intra-task launches: the device cooperates on one subject; model the
	// cost as evenly spread over all SMs at reduced efficiency.
	for _, l := range intra {
		cells := float64(l) * float64(qlen)
		perSM := uint64(cells * cyclesPerCell / (float64(dev.WarpSize) * float64(dev.SMs) * intraEfficiency))
		blocks := make([]uint64, dev.SMs)
		for i := range blocks {
			blocks[i] = perSM
		}
		plans = append(plans, launch{blockCycles: blocks, transferBytes: int64(l) + int64(qlen) + 4})
	}
	return plans
}
