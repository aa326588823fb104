package gpusim

import (
	"math"
	"testing"
)

func TestTeslaC2050Preset(t *testing.T) {
	cfg := TeslaC2050()
	if cfg.SMs != 14 || cfg.WarpSize != 32 {
		t.Fatalf("C2050 geometry %d SMs / warp %d", cfg.SMs, cfg.WarpSize)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	bad := DeviceConfig{SMs: 0, WarpSize: 32, ClockHz: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero SMs must fail")
	}
	bad = TeslaC2050()
	bad.PCIeBytesPerSec = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero PCIe bandwidth must fail")
	}
}

func TestModelPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Model(DeviceConfig{}, []int{10})
}

// utilization is the mean SM's share of the slowest SM's cycles.
func utilization(cfg DeviceConfig, blockCycles []uint64) float64 {
	var total uint64
	for _, c := range blockCycles {
		total += c
	}
	return float64(total) / cfg.ClockHz / (float64(cfg.SMs) * cfg.PredictKernelSec(blockCycles))
}

func TestBalancedGridHasHighUtilization(t *testing.T) {
	cfg := TeslaC2050()
	var blocks []uint64
	for i := 0; i < 14*8; i++ { // many equal blocks
		blocks = append(blocks, 1000)
	}
	if u := utilization(cfg, blocks); u < 0.99 {
		t.Fatalf("balanced utilization %.3f, want ~1", u)
	}
}

func TestImbalancedGridShowsLowUtilization(t *testing.T) {
	cfg := TeslaC2050()
	blocks := []uint64{1000000}
	for i := 0; i < 13; i++ {
		blocks = append(blocks, 10)
	}
	if u := utilization(cfg, blocks); u > 0.2 {
		t.Fatalf("one-hot grid utilization %.3f, want low", u)
	}
	if got := cfg.PredictKernelSec(blocks); got != 1000000/cfg.ClockHz {
		t.Fatalf("kernel %g s, want the big block's %g", got, 1000000/cfg.ClockHz)
	}
}

// TestKernelTimeKeepsArrivalOrder pins the work distributor: blocks go to
// the least-loaded SM as they arrive, not longest first. On two SMs,
// 1, 1, 2 ends at 3 cycles, where LPT would end at 2.
func TestKernelTimeKeepsArrivalOrder(t *testing.T) {
	cfg := TeslaC2050()
	cfg.SMs, cfg.ClockHz = 2, 1
	if got := cfg.PredictKernelSec([]uint64{1, 1, 2}); got != 3 {
		t.Fatalf("kernel %g cycles, want 3 (arrival order)", got)
	}
	if got := cfg.PredictKernelSec([]uint64{2, 1, 1}); got != 2 {
		t.Fatalf("kernel %g cycles, want 2", got)
	}
}

func TestKernelTimeMatchesClock(t *testing.T) {
	cfg := TeslaC2050()
	if got := cfg.PredictKernelSec([]uint64{uint64(cfg.ClockHz)}); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("1 clock-second of cycles took %g s", got)
	}
}

func TestPresets(t *testing.T) {
	k20 := TeslaK20()
	c2050 := TeslaC2050()
	for _, cfg := range []DeviceConfig{c2050, k20} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("preset %s: %v", cfg.Name, err)
		}
	}
	// The Kepler model's aggregate issue rate must exceed Fermi's.
	if float64(k20.SMs)*k20.ClockHz <= float64(c2050.SMs)*c2050.ClockHz {
		t.Fatal("K20 model is not faster than C2050")
	}
}
