package gpusim

import (
	"math"
	"testing"
	"testing/quick"
)

type testWarp struct {
	cycles uint64
	ran    *int
}

func (w *testWarp) Run() {
	if w.ran != nil {
		*w.ran++
	}
}
func (w *testWarp) Cycles() uint64 { return w.cycles }

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

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(DeviceConfig{})
}

func TestLaunchRunsEveryWarp(t *testing.T) {
	dev := New(TeslaC2050())
	ran := 0
	var blocks []*Block
	for i := 0; i < 50; i++ {
		blocks = append(blocks, &Block{Warps: []Warp{&testWarp{cycles: 100, ran: &ran}, &testWarp{cycles: 50, ran: &ran}}})
	}
	st := dev.Launch(blocks, 1000)
	if ran != 100 {
		t.Fatalf("%d warps ran, want 100", ran)
	}
	if st.Blocks != 50 || st.Warps != 100 {
		t.Fatalf("stats %+v", st)
	}
	if st.CyclesTotal != 50*150 {
		t.Fatalf("total cycles %d", st.CyclesTotal)
	}
	if st.TotalSec <= 0 || st.KernelSec <= 0 || st.TransferSec <= 0 {
		t.Fatalf("times %+v", st)
	}
}

func TestBalancedGridHasHighUtilization(t *testing.T) {
	dev := New(TeslaC2050())
	var blocks []*Block
	for i := 0; i < 14*8; i++ { // many equal blocks
		blocks = append(blocks, &Block{Warps: []Warp{&testWarp{cycles: 1000}}})
	}
	st := dev.Launch(blocks, 0)
	if st.Utilization < 0.99 {
		t.Fatalf("balanced utilization %.3f, want ~1", st.Utilization)
	}
}

func TestImbalancedGridShowsLowUtilization(t *testing.T) {
	dev := New(TeslaC2050())
	blocks := []*Block{{Warps: []Warp{&testWarp{cycles: 1000000}}}}
	for i := 0; i < 13; i++ {
		blocks = append(blocks, &Block{Warps: []Warp{&testWarp{cycles: 10}}})
	}
	st := dev.Launch(blocks, 0)
	if st.Utilization > 0.2 {
		t.Fatalf("one-hot grid utilization %.3f, want low", st.Utilization)
	}
	if st.CyclesSlowSM != 1000000 {
		t.Fatalf("slow SM %d", st.CyclesSlowSM)
	}
}

func TestKernelTimeMatchesClock(t *testing.T) {
	cfg := TeslaC2050()
	dev := New(cfg)
	blocks := []*Block{{Warps: []Warp{&testWarp{cycles: uint64(cfg.ClockHz)}}}}
	st := dev.Launch(blocks, 0)
	if math.Abs(st.KernelSec-1.0) > 1e-9 {
		t.Fatalf("1 clock-second of cycles took %g s", st.KernelSec)
	}
}

func TestTransferModel(t *testing.T) {
	cfg := TeslaC2050()
	dev := New(cfg)
	st := dev.Launch(nil, int64(cfg.PCIeBytesPerSec))
	if math.Abs(st.TransferSec-1.0) > 1e-9 {
		t.Fatalf("1 bandwidth-second moved in %g s", st.TransferSec)
	}
}

func TestPredictMatchesLaunch(t *testing.T) {
	// PredictKernelSec must agree exactly with Launch for the same block
	// cycle sequence.
	f := func(seed int64, n uint8) bool {
		cfg := TeslaC2050()
		devA := New(cfg)
		devB := New(cfg)
		count := int(n%60) + 1
		var blocks []*Block
		var cycles []uint64
		x := uint64(seed)
		for i := 0; i < count; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			c := x%100000 + 1
			blocks = append(blocks, &Block{Warps: []Warp{&testWarp{cycles: c}}})
			cycles = append(cycles, c)
		}
		st := devA.Launch(blocks, 0)
		pred := devB.PredictKernelSec(cycles)
		return math.Abs(st.KernelSec-pred) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
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
