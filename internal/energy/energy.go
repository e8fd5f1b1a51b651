// Package energy implements the power, area and energy-efficiency models
// of §VII-B: the Table I breakdown of SearSSD's customised logic
// (synthesised at 32 nm / 800 MHz in the paper, reproduced here as an
// analytic table), the storage-density calculation, per-platform power
// envelopes, and the QPS/W energy-efficiency metric of Fig. 20.
package energy

import "fmt"

// Component is one row of Table I.
type Component struct {
	Name   string
	Config string
	Num    int
	// PowerWatts is the row's total power across all Num instances.
	PowerWatts float64
	// AreaMM2 is the row's total area in mm^2 across all instances.
	AreaMM2 float64
}

// TableI returns the paper's power and area breakdown of SearSSD.
func TableI() []Component {
	return []Component{
		{Name: "MAC group", Config: "2 MACs", Num: 512, PowerWatts: 1.95, AreaMM2: 15.04},
		{Name: "Vgen Buffer", Config: "2MB", Num: 1, PowerWatts: 1.71, AreaMM2: 3.18},
		{Name: "Alloc Buffer", Config: "6MB", Num: 1, PowerWatts: 4.57, AreaMM2: 8.53},
		{Name: "Query Queue", Config: "24KB", Num: 256, PowerWatts: 5.84, AreaMM2: 9.76},
		{Name: "Vaddr Queue", Config: "3KB", Num: 256, PowerWatts: 0.87, AreaMM2: 1.47},
		{Name: "Output Buffer", Config: "1KB", Num: 512, PowerWatts: 0.56, AreaMM2: 1.12},
		{Name: "ECC Decoder", Config: "LDPC", Num: 1024, PowerWatts: 1.18, AreaMM2: 2.84},
		{Name: "Ctr circuits", Config: "-", Num: 0, PowerWatts: 2.14, AreaMM2: 1.15},
	}
}

// SearSSDLogic sums Table I: the paper reports 18.82 W and 43.09 mm^2.
func SearSSDLogic() (watts, areaMM2 float64) {
	for _, c := range TableI() {
		watts += c.PowerWatts
		areaMM2 += c.AreaMM2
	}
	return watts, areaMM2
}

// FPGAWatts is the bitonic-sort kernel's power on the FPGA (§VII-B).
const FPGAWatts = 7.5

// NDSearchWatts returns the total NDSEARCH power: SearSSD custom logic
// plus the FPGA kernel (the paper's 26.32 W, within the ~55 W PCIe
// budget).
func NDSearchWatts() float64 {
	w, _ := SearSSDLogic()
	return w + FPGAWatts
}

// PCIeBudgetWatts is the power envelope the PCIe interface provides.
const PCIeBudgetWatts = 55.0

// WithinBudget reports whether the design fits the PCIe power budget.
func WithinBudget() bool { return NDSearchWatts() <= PCIeBudgetWatts }

// StorageDensity computes the Gb/mm^2 density after embedding the
// customised logic (§VII-B): capacityBytes of V-NAND at baseDensity
// Gb/mm^2 plus logicArea mm^2 of added logic.
func StorageDensity(capacityBytes int64, baseDensityGbPerMM2, logicAreaMM2 float64) float64 {
	if capacityBytes <= 0 || baseDensityGbPerMM2 <= 0 {
		return 0
	}
	gb := float64(capacityBytes) * 8 / 1e9
	nandArea := gb / baseDensityGbPerMM2
	return gb / (nandArea + logicAreaMM2)
}

// PlatformPower returns the end-to-end power envelope of each evaluated
// platform in watts (host-side components included for host-driven
// designs, per the Fig. 20 methodology).
func PlatformPower(name string) (float64, error) {
	switch name {
	case "CPU":
		// 2x Xeon Gold 6254 (150 W TDP each) + DRAM + NVMe.
		return 330, nil
	case "CPU-T":
		// Terabyte-class DIMM population roughly doubles memory power.
		return 430, nil
	case "GPU":
		// Titan RTX (280 W) + one host socket share.
		return 380, nil
	case "SmartSSD":
		// SmartSSD device: SSD + on-card FPGA.
		return 35, nil
	case "DS-c":
		return 38, nil
	case "DS-cp":
		return 32, nil
	case "NDSearch", "NDSEARCH":
		return NDSearchWatts(), nil
	default:
		return 0, fmt.Errorf("energy: unknown platform %q", name)
	}
}

// Efficiency returns QPS per watt.
func Efficiency(qps, watts float64) float64 {
	if watts <= 0 {
		return 0
	}
	return qps / watts
}
