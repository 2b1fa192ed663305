package main

// workloads is the table of what -workload accepts; BENCHMARK.json says why
// each one exists.
var workloads = []workload{
	{"run-cg256", setupRunCG},
	{"ingest-inproc", setupIngestInproc},
	{"ingest-tcp-durable", setupIngestTCPDurable},
	{"ingest-read-mix", setupReadMix},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}
