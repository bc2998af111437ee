package experiments

import "github.com/thu-has/ragnar/internal/nic"

// Params are the knobs an experiment runs with — exactly cmd/ragnar's flags.
// Each experiment reads the ones it needs and ignores the rest.
type Params struct {
	Profile  nic.Profile // adapter for single-NIC experiments
	Full     bool        // paper-scale parameter spaces
	Seed     int64
	Workers  int // sweep worker goroutines (0 = NumCPU); output is identical at any count
	Domains  int // engine domains for partitionable fabrics; output is identical at any count
	PerClass int // CNN corpus traces per class; Full uses the paper's 395
}

// DefaultParams are the Params `ragnar` runs with when no flag is given:
// cmd/ragnar's flag defaults and BenchmarkRegistry both read them. Workers
// stays 0 (NumCPU), which is also the CLI's default.
func DefaultParams() Params {
	return Params{Profile: nic.CX4, Seed: 1, Domains: 1, PerClass: 12}
}

// size picks an experiment's default or paper-scale parameter.
func (p Params) size(small, full int) int {
	if p.Full {
		return full
	}
	return small
}

// Result is what every experiment returns: a value that marshals to JSON and
// renders the rows the paper reports as text.
type Result interface{ Render() string }

// Experiment is one runnable table, figure or follow-on study.
type Experiment struct {
	Name string
	Run  func(Params) (Result, error)
}

// result adapts an experiment's concrete (T, error) return to Run's.
func result[T Result](r T, err error) (Result, error) { return r, err }

// Registry lists every experiment in the order `ragnar all` runs them. It is
// the one list of experiment names: the CLI, its usage string, the golden
// test and scripts/equivalence.sh all derive from it.
var Registry = []Experiment{
	{"table1", func(Params) (Result, error) { return Table1(), nil }},
	{"table3", func(Params) (Result, error) { return Table3(), nil }},
	{"fig4", func(p Params) (Result, error) {
		if !p.Full {
			return Fig4(p.Profile, false, p.Workers), nil
		}
		var set Fig4Set
		for _, prof := range nic.PaperProfiles {
			set = append(set, Fig4(prof, true, p.Workers))
		}
		return set, nil
	}},
	{"fig5", func(p Params) (Result, error) { return result(Fig5(p.Profile, p.size(200, 600), p.Seed, p.Workers)) }},
	{"fig6", func(p Params) (Result, error) { return result(Fig6(p.Profile, p.size(200, 600), p.Seed, p.Workers)) }},
	{"fig7", func(p Params) (Result, error) { return result(Fig7(p.Profile, p.size(200, 600), p.Seed, p.Workers)) }},
	{"fig8", func(p Params) (Result, error) { return result(Fig8(p.Profile, p.size(200, 600), p.Seed, p.Workers)) }},
	{"fig9", func(p Params) (Result, error) { return Fig9(p.Seed, p.Workers), nil }},
	{"fig10", func(p Params) (Result, error) { return result(Fig10(p.Seed)) }},
	{"fig11", func(p Params) (Result, error) { return result(Fig11(p.Seed, p.Workers)) }},
	{"table5", func(p Params) (Result, error) { return result(Table5(p.size(128, 1024), p.Seed, p.Workers)) }},
	{"lossgrid", func(p Params) (Result, error) {
		return result(LossGrid(p.Profile, p.size(96, 512), p.size(2, 5), nil, p.Seed, p.Workers))
	}},
	{"tenants", func(p Params) (Result, error) {
		return result(Tenants(p.Profile, p.size(3, 6), nil, p.Seed, p.Workers))
	}},
	{"exhaust", func(p Params) (Result, error) { return result(Exhaust(p.Profile, p.size(3, 6), p.Seed, p.Workers)) }},
	{"nvmf", func(p Params) (Result, error) { return result(Nvmf(p.Profile, p.Seed, p.Workers)) }},
	{"pythia", func(p Params) (Result, error) { return result(PythiaCompare(64, p.Seed)) }},
	{"fig12", func(p Params) (Result, error) { return Fig12(p.Profile, p.Seed), nil }},
	{"fig12robust", func(p Params) (Result, error) { return Fig12Robustness(p.Profile, p.Seed), nil }},
	{"fig13", func(p Params) (Result, error) { return result(Fig13(p.Profile, p.size(p.PerClass, 395), p.Seed)) }},
	{"defense", func(p Params) (Result, error) { return result(DefenseEval(p.Profile, p.Seed)) }},
	{"defgrid", func(p Params) (Result, error) { return result(DefGrid(p.Profile, p.Seed, p.Workers)) }},
	{"redn", func(p Params) (Result, error) { return result(Redn(p.Profile, p.Seed, p.Workers)) }},
	{"clos", func(p Params) (Result, error) { return result(Clos(p.Profile, p.Domains, p.Full, p.Seed, p.Workers)) }},
}

// Lookup returns the registered experiment with the given name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}
