// Package device models the evaluation platform of the paper's Table I:
// a TI MSP430FR5994 MCU with a Low-Energy Accelerator (LEA), 8 KB of
// on-chip SRAM used as volatile memory (VM), and a 512 KB external
// Cypress CY15B104Q FRAM used as nonvolatile memory (NVM), reached
// through DMA-driven SPI transfers.
//
// The profile's latency and energy constants are calibrated to public
// datasheet orders of magnitude (16 MHz core/LEA clock, ~1 MAC/cycle on
// the LEA, SPI FRAM streaming at a fraction of a microsecond per byte,
// single-digit-milliwatt active power). The paper's conclusions rest on
// cost *ratios* — NVM writes dominating intermittent inference, reads and
// MACs dominating continuous inference — and those ratios are what the
// profile reproduces; absolute seconds are not expected to match the
// authors' testbed.
package device

// Profile is a hardware cost model.
type Profile struct {
	Name string

	// Memory capacities.
	VMBytes  int // on-chip SRAM available to the inference engine
	NVMBytes int // external FRAM

	// Timing, in seconds.
	MACTime         float64 // one LEA multiply-accumulate
	OpOverheadTime  float64 // LEA command issue/retire per accelerator op
	DMAInvokeTime   float64 // DMA descriptor setup per transfer
	NVMInvokeTime   float64 // SPI command/address phase per NVM transaction
	NVMReadPerByte  float64 // streaming read, per byte
	NVMWritePerByte float64 // streaming write, per byte
	RebootTime      float64 // power-on reset to engine resume entry

	// Energy, in joules.
	BasePower        float64 // static active power while on (CPU, clocks, leakage)
	MACEnergy        float64 // incremental energy per LEA MAC
	NVMReadEnergyPB  float64 // per byte read
	NVMWriteEnergyPB float64 // per byte written
	TransferEnergy   float64 // per DMA+SPI transaction (setup portion)
	RebootEnergy     float64 // per power-on reset
}

// MSP430FR5994 returns the default profile for the paper's platform.
func MSP430FR5994() Profile {
	return Profile{
		Name:     "TI MSP430FR5994 + LEA + CY15B104Q FRAM",
		VMBytes:  8 * 1024,
		NVMBytes: 512 * 1024,

		MACTime:         62.5e-9, // 1 cycle @ 16 MHz
		OpOverheadTime:  2e-6,    // ~32 cycles LEA command handling
		DMAInvokeTime:   2e-6,
		NVMInvokeTime:   4e-6,   // SPI opcode + 3 address bytes @ 8 MHz
		NVMReadPerByte:  0.5e-6, // 16 Mbit/s SPI streaming
		NVMWritePerByte: 0.6e-6,
		RebootTime:      1e-3,

		BasePower:        3e-3,    // MCU active + board
		MACEnergy:        0.12e-9, // LEA is the efficient path
		NVMReadEnergyPB:  10e-9,
		NVMWriteEnergyPB: 15e-9,
		TransferEnergy:   40e-9,
		RebootEnergy:     5e-6,
	}
}

// TransferTime returns the latency of moving n bytes between VM and NVM
// in one DMA transaction. Here and in the other cost functions each
// product is rounded on its own (float64(a*b)), so that no GOARCH fuses
// it into an addition and the cost model has the same bits everywhere.
func (p *Profile) TransferTime(n int64, write bool) float64 {
	per := p.NVMReadPerByte
	if write {
		per = p.NVMWritePerByte
	}
	return p.DMAInvokeTime + p.NVMInvokeTime + float64(float64(n)*per)
}

// TransferEnergyOf returns the energy of moving n bytes in one
// transaction, excluding base power (which is charged per elapsed time).
func (p *Profile) TransferEnergyOf(n int64, write bool) float64 {
	per := p.NVMReadEnergyPB
	if write {
		per = p.NVMWriteEnergyPB
	}
	return p.TransferEnergy + float64(float64(n)*per)
}

// ComputeTime returns the latency of macs multiply-accumulates on the
// accelerator, excluding per-op command overhead.
func (p *Profile) ComputeTime(macs int64) float64 {
	return float64(float64(macs) * p.MACTime)
}

// ComputeEnergy returns the incremental accelerator energy for macs MACs.
func (p *Profile) ComputeEnergy(macs int64) float64 {
	return float64(float64(macs) * p.MACEnergy)
}
