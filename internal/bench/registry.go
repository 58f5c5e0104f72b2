package bench

import "fmt"

// Experiment is a runnable harness entry reproducing one paper table or
// figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) error

	twin bool // shares its measurement pass with the entry above; "all" skips it
}

// registry is every experiment in presentation order: the paper's figures,
// then the extras and the CI gates.
var registry = func() []Experiment {
	out := []Experiment{table2.experiment()}
	for _, f := range figures {
		e := f.experiment()
		if f.twin {
			e.Run = out[len(out)-1].Run
		}
		out = append(out, e)
	}
	out = append(out, Experiment{ID: "sharded", Title: "Extra: sharded ingest scaling (internal/shard)", Run: shardedIngest})
	for _, g := range []gate{asyncIngestGate, batchQueryGate, walRecoveryGate, retentionGate,
		replicationGate, readCacheGate, analyticsGate} {
		out = append(out, g.experiment())
	}
	return out
}()

// Experiments lists all registered experiments in presentation order.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// Run executes the experiment with the given ID, or every registered
// experiment for ID "all".
func Run(id string, o Options) error {
	if id == "all" {
		for _, e := range registry {
			if e.twin {
				continue
			}
			if err := e.Run(o); err != nil {
				return err
			}
		}
		return nil
	}
	for _, e := range registry {
		if e.ID == id {
			return e.Run(o)
		}
	}
	return fmt.Errorf("bench: unknown experiment %q (try one of %v or \"all\")", id, ids())
}

func ids() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.ID
	}
	return out
}
