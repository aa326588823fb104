// Package gpusim is the timing model of the CUDA devices the paper runs
// on (DESIGN.md §2). It models the throughput-relevant structure of a
// Fermi-class device — streaming multiprocessors, thread blocks, 32-lane
// warps executing in lock step (so a warp pays for its longest lane),
// PCIe transfers and kernel launch latency — and prices a CUDASW++
// 2.0-style database search on it (model.go). It computes no scores: a
// simulated GPU worker scores with the same host kernel as a CPU worker
// and reports this model's device seconds.
//
// The model is deliberately a throughput model, not a cycle-accurate
// pipeline model: a warp's cost is a cycle count, SMs execute their
// resident blocks' warps back to back, and the kernel time is the slowest
// SM's cycle count divided by the clock. This is the level of detail the
// paper's scheduling experiments observe (per task processing times), and
// it is what calibration against the paper's single-GPU numbers pins
// down.
package gpusim

import (
	"fmt"
	"slices"
)

// DeviceConfig describes a simulated device.
type DeviceConfig struct {
	Name string
	// SMs is the number of streaming multiprocessors.
	SMs int
	// WarpSize is the SIMT width (32 for every CUDA device).
	WarpSize int
	// MaxResidentBlocks bounds how many blocks an SM can hold at once; it
	// only affects scheduling granularity in this throughput model.
	MaxResidentBlocks int
	// ClockHz is the SM clock rate.
	ClockHz float64
	// MemBytes is the device memory capacity.
	MemBytes int64
	// PCIeBytesPerSec is the effective host-device copy bandwidth.
	PCIeBytesPerSec float64
	// LaunchOverheadSec is charged once per kernel launch.
	LaunchOverheadSec float64
}

// TeslaC2050 returns the configuration of the paper's Nvidia Tesla C2050
// (Fermi GF100: 14 SMs at 1.15 GHz, 3 GB GDDR5, PCIe 2.0 x16).
func TeslaC2050() DeviceConfig {
	return DeviceConfig{
		Name:              "Tesla C2050 (simulated)",
		SMs:               14,
		WarpSize:          32,
		MaxResidentBlocks: 8,
		ClockHz:           1.15e9,
		MemBytes:          3 << 30,
		PCIeBytesPerSec:   5.5e9,
		LaunchOverheadSec: 10e-6,
	}
}

// TeslaK20 returns a Kepler-class device (13 SMX at 0.71 GHz but with
// far wider SMs; modeled here as higher per-SM throughput via the
// kernel's cycles-per-cell divisor staying warp-relative, 5 GB, PCIe 3).
// It powers the "what if SWDUAL ran on the next GPU generation"
// ablation.
func TeslaK20() DeviceConfig {
	return DeviceConfig{
		Name:              "Tesla K20 (simulated)",
		SMs:               13 * 4, // 4 warp schedulers per SMX: model as 52 warp-issue units
		WarpSize:          32,
		MaxResidentBlocks: 16,
		ClockHz:           0.71e9,
		MemBytes:          5 << 30,
		PCIeBytesPerSec:   11e9,
		LaunchOverheadSec: 8e-6,
	}
}

// Validate reports configuration errors.
func (c DeviceConfig) Validate() error {
	if c.SMs <= 0 || c.WarpSize <= 0 || c.ClockHz <= 0 {
		return fmt.Errorf("gpusim: invalid device config %+v", c)
	}
	if c.PCIeBytesPerSec <= 0 {
		return fmt.Errorf("gpusim: device %s has no PCIe bandwidth", c.Name)
	}
	return nil
}

// PredictKernelSec is the kernel time of a launch given its per-block
// cycle costs: blocks go to the least-loaded SM in arrival order, which
// models the hardware work distributor (sorting them descending would be
// LPT, which the hardware does not do), and the kernel ends with the
// slowest SM. A deliberately imbalanced grid therefore costs its largest
// block.
func (c DeviceConfig) PredictKernelSec(blockCycles []uint64) float64 {
	// SM counts are tiny (14-52): a linear scan beats a heap.
	sm := make([]uint64, c.SMs)
	for _, b := range blockCycles {
		smi := 0
		for i := 1; i < len(sm); i++ {
			if sm[i] < sm[smi] {
				smi = i
			}
		}
		sm[smi] += b
	}
	return float64(slices.Max(sm)) / c.ClockHz
}
