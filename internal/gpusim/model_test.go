package gpusim

import (
	"math"
	"math/rand"
	"testing"

	"swdual/internal/synth"
)

// planSeconds is the reference the cached TimingModel is checked against:
// the plan at the query's own length, each launch priced as its kernel
// time plus its transfer and launch overhead.
func planSeconds(dev DeviceConfig, qlen int, lengths []int) float64 {
	total := 0.0
	for _, l := range plan(dev, qlen, lengths) {
		total += dev.PredictKernelSec(l.blockCycles)
		total += float64(l.transferBytes)/dev.PCIeBytesPerSec + dev.LaunchOverheadSec
	}
	return total
}

func randomLengths(n, lo, hi int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		out[i] = lo + rng.Intn(hi-lo+1)
	}
	return out
}

// gcups is the modeled rate of a qlen-residue query against lengths.
func gcups(lengths []int, qlen int) float64 {
	tm := Model(TeslaC2050(), lengths)
	return float64(qlen) * float64(tm.TotalResidues) / tm.Seconds(qlen) / 1e9
}

// TestTimingModelMatchesPredict checks the one-reference-plan model
// against the plan at every query length from 1 to 5000 residues: its
// truncation error is largest at qlen 1 (about 1.2 % on UniProt/2000).
func TestTimingModelMatchesPredict(t *testing.T) {
	dev := TeslaC2050()
	for _, spec := range []synth.DBSpec{synth.UniProt.Scaled(2000), synth.EnsemblDog.Scaled(100)} {
		lengths := spec.GenerateLengths()
		tm := Model(dev, lengths)
		for qlen := 1; qlen <= 5000; qlen++ {
			direct, cached := planSeconds(dev, qlen, lengths), tm.Seconds(qlen)
			if math.Abs(direct-cached)/direct > 0.02 {
				t.Fatalf("%s qlen %d: cached %g vs direct %g", spec.Name, qlen, cached, direct)
			}
		}
	}
}

func TestIntraTaskKernelUsedForLongSubjects(t *testing.T) {
	dev := TeslaC2050()
	if got := Model(dev, []int{50}).Launches; got != 1 {
		t.Fatalf("one short subject: %d launches, want 1", got)
	}
	if got := Model(dev, []int{4000, 50}).Launches; got != 2 {
		t.Fatalf("a long and a short subject: %d launches, want 2", got)
	}
	// The intra-task launch spreads one subject over every SM.
	long := plan(dev, 64, []int{4000})
	if len(long) != 1 || len(long[0].blockCycles) != dev.SMs {
		t.Fatalf("intra-task plan %+v, want one launch of %d blocks", long, dev.SMs)
	}
}

func TestLoadedDeviceRate(t *testing.T) {
	// Enough subjects to occupy all 14 SMs (63 warps -> 16 blocks). A
	// loaded device should sit in the real C2050 regime (~17-28 GCUPS for
	// CUDASW++); allow width for residual imbalance on 16 blocks.
	if g := gcups(randomLengths(2000, 50, 400, 11), 300); g < 8 || g > 35 {
		t.Fatalf("simulated GCUPS %v outside plausible band", g)
	}
}

func TestTinyDatabaseUnderutilizesDevice(t *testing.T) {
	// GPUs need large batches: a 200-sequence database cannot fill 14
	// SMs, so throughput must drop well below the loaded-device regime.
	if g := gcups(randomLengths(200, 50, 400, 11), 300); g > 8 {
		t.Fatalf("tiny database reached %v GCUPS; occupancy model broken", g)
	}
}

func TestTransferModel(t *testing.T) {
	// One warp in one block: the subject's residues, the query and 4
	// result bytes per thread of the block cross PCIe once per launch.
	dev := TeslaC2050()
	pl := plan(dev, 7, []int{100})
	if want := int64(100 + 7 + 4*warpsPerBlock*dev.WarpSize); len(pl) != 1 || pl[0].transferBytes != want {
		t.Fatalf("plan %+v, want one launch moving %d bytes", pl, want)
	}
	tm := Model(dev, []int{100})
	want := float64(100+4096+4*warpsPerBlock*dev.WarpSize)/dev.PCIeBytesPerSec + dev.LaunchOverheadSec
	if math.Abs(tm.FixedSeconds-want) > 1e-15 {
		t.Fatalf("fixed seconds %g, want %g", tm.FixedSeconds, want)
	}
}

func TestEmptyInputs(t *testing.T) {
	dev := TeslaC2050()
	if tm := Model(dev, nil); tm != (TimingModel{}) {
		t.Fatalf("empty database model %+v", tm)
	}
	if Model(dev, []int{10}).Seconds(0) != 0 {
		t.Fatal("zero query must cost 0")
	}
}

func TestZeroLengthSubjects(t *testing.T) {
	dev := TeslaC2050()
	with, without := Model(dev, []int{0, 100, 0}), Model(dev, []int{100})
	if with.Subjects != 3 {
		t.Fatalf("%d subjects, want 3", with.Subjects)
	}
	with.Subjects = without.Subjects
	if with != without {
		t.Fatalf("empty subjects changed the model: %+v vs %+v", with, without)
	}
}
