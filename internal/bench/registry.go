package bench

import "fmt"

// Experiment is a runnable harness entry reproducing one paper table or
// figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) error
}

var registry = []Experiment{
	{"table2", "Table II: dataset summary", Table2},
	{"fig10", "Fig. 10: edge queries (AAE/ARE/latency vs Lq)", Fig10EdgeQueries},
	{"fig11", "Fig. 11: vertex queries (AAE/ARE/latency vs Lq)", Fig11VertexQueries},
	{"fig12", "Fig. 12: path queries (AAE/ARE/latency vs hops)", Fig12PathQueries},
	{"fig13", "Fig. 13: subgraph queries (AAE/ARE/latency vs size)", Fig13SubgraphQueries},
	{"fig14", "Fig. 14: vertex queries & update cost by skewness", Fig14Skewness},
	{"fig15", "Fig. 15: vertex queries & update cost by variance", Fig15Variance},
	{"fig16", "Fig. 16: insertion throughput", Fig16InsertThroughput},
	{"fig17", "Fig. 17: insertion latency", Fig17InsertLatency},
	{"fig18", "Fig. 18: deletion throughput", Fig18DeleteThroughput},
	{"fig19", "Fig. 19: space cost", Fig19Space},
	{"fig20", "Fig. 20: optimization ablations", Fig20Optimizations},
	{"fig21", "Fig. 21: parameter sweep (d1)", Fig21Parameters},
	{"ablation", "Extra: HIGGS design-choice sweeps (θ / b / r)", Ablation},
	{"budget", "Extra: Horae accuracy vs GSS buffer budget", BufferBudget},
	{"reverse", "Extra: gMatrix reverse heavy-hitter queries", ReverseQueries},
	{"sharded", "Extra: sharded ingest scaling (internal/shard)", shardedIngest},
	asyncIngestGate.experiment(),
	batchQueryGate.experiment(),
	walRecoveryGate.experiment(),
	retentionGate.experiment(),
	allocsGate.experiment(),
	replicationGate.experiment(),
	readCacheGate.experiment(),
	analyticsGate.experiment(),
}

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
			if e.ID == "fig17" {
				continue // shares its measurement pass with fig16
			}
			if err := e.Run(o); err != nil {
				return fmt.Errorf("bench: %s: %w", e.ID, err)
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
