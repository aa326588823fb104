// Package gpusim is a SIMT GPU simulator: the substitute for the CUDA
// devices the paper runs on (DESIGN.md §2). It models the throughput-
// relevant structure of a Fermi-class device — streaming multiprocessors,
// thread blocks, 32-lane warps executing in lock step (so a warp pays for
// its longest lane), PCIe transfers and kernel launch latency — while
// executing kernel work functionally in Go so results are real.
//
// The simulator is deliberately a throughput model, not a cycle-accurate
// pipeline model: a warp's cost is supplied by the kernel as a cycle
// count, SMs execute their resident blocks' warps back to back, and the
// kernel time is the slowest SM's cycle count divided by the clock. This
// is the level of detail the paper's scheduling experiments observe (per
// task processing times), and it is what calibration against the paper's
// single-GPU numbers pins down.
package gpusim

import "fmt"

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

// Warp is one unit of lock-step work: Run performs the functional
// computation, Cycles returns its virtual cost on an SM.
type Warp interface {
	Run()
	Cycles() uint64
}

// Block is a group of warps co-resident on one SM.
type Block struct {
	Warps []Warp
}

func (b *Block) cycles() uint64 {
	var c uint64
	for _, w := range b.Warps {
		c += w.Cycles()
	}
	return c
}

// LaunchStats describes one simulated kernel launch.
type LaunchStats struct {
	Blocks       int
	Warps        int
	SMCycles     []uint64
	KernelSec    float64 // max SM cycles / clock
	TransferSec  float64
	LaunchSec    float64
	TotalSec     float64
	Utilization  float64 // mean SM busy cycles / max SM cycles
	BytesMoved   int64
	CyclesTotal  uint64
	CyclesSlowSM uint64
}

// Device is a simulated GPU. It keeps no state between launches; the
// master-slave runtime still gives each GPU worker its own Device,
// matching the one-context-per-worker structure of the paper's
// implementation.
type Device struct {
	cfg DeviceConfig
}

// New builds a Device; it panics on invalid configurations, which are
// programmer errors.
func New(cfg DeviceConfig) *Device {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Device{cfg: cfg}
}

// Config returns the device configuration.
func (d *Device) Config() DeviceConfig { return d.cfg }

// Launch executes the blocks functionally and charges virtual time:
// transfers for the given byte volume, the launch overhead, and the
// kernel itself. Blocks are dispatched to the least-loaded SM in arrival
// order, which models the hardware work distributor; a deliberately
// imbalanced grid therefore shows up as low Utilization.
func (d *Device) Launch(blocks []*Block, transferBytes int64) LaunchStats {
	st := LaunchStats{
		Blocks:      len(blocks),
		SMCycles:    make([]uint64, d.cfg.SMs),
		BytesMoved:  transferBytes,
		TransferSec: float64(transferBytes) / d.cfg.PCIeBytesPerSec,
		LaunchSec:   d.cfg.LaunchOverheadSec,
	}
	// Least-loaded SM dispatch via a small heap-free scan: SM counts are
	// tiny (14-16), a linear scan is faster than a heap.
	for _, b := range blocks {
		for _, w := range b.Warps {
			w.Run()
		}
		c := b.cycles()
		smi := 0
		for i := 1; i < len(st.SMCycles); i++ {
			if st.SMCycles[i] < st.SMCycles[smi] {
				smi = i
			}
		}
		st.SMCycles[smi] += c
		st.Warps += len(b.Warps)
		st.CyclesTotal += c
	}
	for _, c := range st.SMCycles {
		if c > st.CyclesSlowSM {
			st.CyclesSlowSM = c
		}
	}
	st.KernelSec = float64(st.CyclesSlowSM) / d.cfg.ClockHz
	if st.CyclesSlowSM > 0 {
		st.Utilization = float64(st.CyclesTotal) / (float64(d.cfg.SMs) * float64(st.CyclesSlowSM))
	}
	st.TotalSec = st.KernelSec + st.TransferSec + st.LaunchSec
	return st
}

// PredictKernelSec estimates the kernel time for a set of per-block cycle
// costs without executing anything — the pure timing-model entry point
// used by the platform cost model at paper scale.
func (d *Device) PredictKernelSec(blockCycles []uint64) float64 {
	sm := make([]uint64, d.cfg.SMs)
	// The work distributor issues blocks in order; sorting descending
	// here would be LPT, which the hardware does not do. Keep arrival
	// order for fidelity with Launch.
	for _, c := range blockCycles {
		smi := 0
		for i := 1; i < len(sm); i++ {
			if sm[i] < sm[smi] {
				smi = i
			}
		}
		sm[smi] += c
	}
	var max uint64
	for _, c := range sm {
		if c > max {
			max = c
		}
	}
	return float64(max) / d.cfg.ClockHz
}
