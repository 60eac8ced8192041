package experiments

import "repro/internal/sweep"

// Reference values transcribed from the paper, used to annotate the
// reproduction's output with paper-vs-measured comparisons and by the
// Table 1 anchor check in checks.go, plus the paper's parameter axes as
// declarative sweep configurations.

// PaperPolicies returns the Figures 3–5 policy axis — every BSLD
// threshold × wait-queue threshold combination of the evaluation — in
// presentation order (threshold outer, WQ inner).
func PaperPolicies() []sweep.PolicyConfig {
	var pols []sweep.PolicyConfig
	for _, thr := range BSLDThresholds() {
		for _, wq := range WQThresholds() {
			pols = append(pols, sweep.PolicyConfig{BSLDThr: thr, WQThr: wq})
		}
	}
	return pols
}

// PaperTable1BSLD is the "Avg BSLD" column of Table 1: the average bounded
// slowdown of the 5000-job segments without DVFS.
var PaperTable1BSLD = map[string]float64{
	"CTC":         4.66,
	"SDSC":        24.91,
	"SDSCBlue":    5.15,
	"LLNLThunder": 1.0,
	"LLNLAtlas":   1.08,
}

// PaperTable1CPUs is the system size column of Table 1.
//
//lint:deadexport paper data kept for the fidelity ledger planned in ROADMAP.md
var PaperTable1CPUs = map[string]int{
	"CTC":         430,
	"SDSC":        128,
	"SDSCBlue":    1152,
	"LLNLThunder": 4008,
	"LLNLAtlas":   9216,
}

// PaperTable3Wait is Table 3: average wait time in seconds for five
// scheduling/system configurations, in the order: original size without
// DVFS, original size (BSLDthr=2, WQ=0), original size (BSLDthr=2, WQ=NO),
// 50% enlarged (WQ=0), 50% enlarged (WQ=NO).
var PaperTable3Wait = map[string][5]float64{
	"CTC":         {7107, 12361, 16060, 2980, 4183},
	"SDSC":        {36001, 35946, 45845, 9202, 11713},
	"SDSCBlue":    {4798, 6587, 8766, 2351, 3153},
	"LLNLThunder": {0, 1927, 6876, 379, 1877},
	"LLNLAtlas":   {69, 1841, 6691, 708, 2807},
}

// Headline claims of the abstract and Section 5, recorded as data for
// paper-vs-measured comparisons (checks.go tests their qualitative form):
//
//   - CPU energy decreases by 7%–18% on average depending on the allowed
//     performance penalty.
//   - The least restrictive combination (BSLDthr=3, WQ=NO) reaches
//     savings of up to 22% in computational energy for workloads other
//     than SDSC.
//   - SDSC (original average BSLD 24.91) cannot save energy.
//   - LLNLThunder saves 8.95% of computational energy at (1.5, 4) with
//     1219 reduced jobs, but only 3.79% at (2, 4) with 854 reduced jobs —
//     a higher BSLD threshold can reduce fewer jobs.
//   - SDSCBlue at (2, NO) reduces 2778 jobs; at (3, NO) it reduces 2654
//     jobs yet saves more energy.
//   - A 20% larger system with power-aware scheduling cuts computational
//     energy by more than 25% (almost 30%) at same-or-better performance.
//   - A 50% increase gives much better performance and up to 35% lower
//     computational energy.
//   - SDSCBlue needs only a 10% size increase to beat the original
//     no-DVFS performance.
//
//lint:deadexport paper data kept for the fidelity ledger planned in ROADMAP.md
const (
	PaperThunderSavings15_4   = 8.95 // % computational energy saved at (1.5, 4)
	PaperThunderSavings2_4    = 3.79 // % at (2, 4)
	PaperThunderReduced15_4   = 1219 // reduced jobs at (1.5, 4)
	PaperThunderReduced2_4    = 854  // reduced jobs at (2, 4)
	PaperSDSCBlueReduced2_NO  = 2778 // reduced jobs at (2, NO)
	PaperSDSCBlueReduced3_NO  = 2654 // reduced jobs at (3, NO)
	PaperAvgSavingsLowPct     = 7.0  // headline band, %
	PaperAvgSavingsHighPct    = 18.0 // headline band, %
	PaperMaxSavings3NOPct     = 22.0 // best-case at (3, NO), %
	PaperEnlarged20SavingsPct = 30.0 // ~30% at 20% enlargement
	PaperEnlarged50SavingsPct = 35.0 // up to 35% at 50% enlargement
)
