package netcalc

import (
	"buffy/internal/buffer"
	"buffy/internal/ir"
	"buffy/internal/lang/typecheck"
	"buffy/internal/qm"
)

// NetOptions returns the entry's netcalc analysis options.
func (e CorpusEntry) NetOptions() Options {
	return Options{Params: e.Params, ArrivalsPerStep: e.Arrivals}
}

// IROptions returns the entry's compile options for the differential SMT
// solve. The count buffer model keeps the encoding small; every corpus
// model's behaviour depends only on backlogs, so it is exact here.
func (e CorpusEntry) IROptions() ir.Options {
	return ir.Options{
		T: e.T, Params: e.Params,
		Bounds: typecheck.Bounds{ArrivalsPerStep: e.Arrivals, BufferCap: e.BufferCap, MaxBytes: e.MaxBytes},
		Model:  buffer.CountModel{},
	}
}

// Corpus returns the standard netcalc model corpus: every qm topology with
// a registered lowering, configured at small horizons the SMT backend can
// exhaust, so the differential harness gets a complete sweep. Bounded marks
// the entries whose victim flow has finite analytical bounds; the others
// are expected to answer "unbounded" (strict priority offers the victim no
// guarantee, and rr/drr fair shares of 1/N are below the integral arrival
// rate of 1).
func Corpus() []CorpusEntry {
	return []CorpusEntry{
		{
			Name: "tbrl", Src: qm.TBRLSrc, T: 6,
			Params:   map[string]int64{"RATE": 1, "BURST": 3, "C": 2},
			Arrivals: 2, BufferCap: 16, Bounded: true,
		},
		{
			Name: "sptandem", Src: qm.SPTandemSrc, T: 5,
			Params:   map[string]int64{"RH": 1, "BH": 2, "RV": 1, "BV": 2, "C": 3},
			Arrivals: 2, BufferCap: 16, Bounded: true,
		},
		{
			Name: "shaper", Src: qm.ShaperSrc, T: 5,
			Params:   map[string]int64{"RATE": 2, "BURST": 2},
			Arrivals: 2, BufferCap: 16, MaxBytes: 1, Bounded: true,
		},
		{
			Name: "delay", Src: qm.DelaySrc, T: 5,
			Arrivals: 1, BufferCap: 8, Bounded: true,
		},
		{
			Name: "sp", Src: qm.SPQuerySrc, T: 4,
			Params:   map[string]int64{"N": 2},
			Arrivals: 1, BufferCap: 8, Bounded: false,
		},
		{
			Name: "rr", Src: qm.RRQuerySrc, T: 4,
			Params:   map[string]int64{"N": 2},
			Arrivals: 1, BufferCap: 8, Bounded: false,
		},
		{
			Name: "drr", Src: qm.DRRSrc, T: 4,
			Params:   map[string]int64{"N": 2, "Q": 2},
			Arrivals: 1, BufferCap: 8, Bounded: false,
		},
	}
}
