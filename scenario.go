package vsensor

import (
	"fmt"

	"vsensor/internal/scenario"
)

// ScenarioNames lists the built-in evaluation scenarios (the paper's case
// studies and generic injections).
func ScenarioNames() []string { return scenario.Names() }

// RunScenario executes a named scenario end-to-end. When the scenario's
// injections are windowed relative to the run length, a clean baseline run
// resolves them first. The returned baseline report is nil for scenarios
// with only permanent injections. A non-zero opt.Ranks runs the same
// situation at that size (scenario.Resize): the same nodes and injections,
// fewer or more ranks per node.
func RunScenario(name string, opt Options) (rep, baseline *Report, err error) {
	sc, err := scenario.Get(name)
	if err != nil {
		return nil, nil, err
	}
	src, err := sc.Source()
	if err != nil {
		return nil, nil, err
	}
	if opt.Ranks == 0 {
		opt.Ranks = sc.Ranks
	} else {
		sc.Resize(opt.Ranks)
	}
	// Scenario-declared transport faults apply unless the caller brought
	// their own plan. The baseline run below is uninstrumented, so faults
	// never touch it either way.
	if opt.Faults == nil && sc.Faults != nil {
		opt.Faults = sc.Faults
	}

	var baseNs int64
	if sc.NeedsBaseline() {
		cleanCluster, err := sc.CleanCluster()
		if err != nil {
			return nil, nil, err
		}
		baseOpt := opt
		baseOpt.Cluster = cleanCluster
		baseOpt.Uninstrumented = true
		baseline, err = Run(src, baseOpt)
		if err != nil {
			return nil, nil, fmt.Errorf("scenario %s baseline: %w", name, err)
		}
		baseNs = baseline.Result.TotalNs
	}

	cl, err := sc.Cluster(baseNs)
	if err != nil {
		return nil, nil, err
	}
	opt.Cluster = cl
	rep, err = Run(src, opt)
	if err != nil {
		return rep, baseline, fmt.Errorf("scenario %s: %w", name, err)
	}
	return rep, baseline, nil
}
