// Command mixbench regenerates the performance experiments of
// EXPERIMENTS.md (E10-E14, E20, E21): the measured counterparts of the
// paper's qualitative claims about lazy evaluation, composition
// optimization, decontextualization, the stateless group-by and the rewrite
// stages, plus the cost-based optimizer and the sharded fleet.
//
//	mixbench                      # run everything at default scale
//	mixbench -exp lazy            # one experiment
//	mixbench -exp cost -check     # E20, gated (CI smoke), writes BENCH_cost.json
//	mixbench -exp shard -check    # E21, gated (CI smoke), writes BENCH_shard.json
//	mixbench -n 2000 -k 1,10,100
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"mix/internal/experiment"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment: lazy|compose|decontext|gby|ablate|cost|shard|all")
		sizes      = flag.String("n", "100,1000", "comma-separated customer counts")
		ordersPer  = flag.Int("orders", 5, "orders per customer")
		browseKs   = flag.String("k", "1,10,100", "comma-separated browse depths (lazy experiment)")
		thresholds = flag.String("t", "50000,90000,99000", "selection thresholds (composition experiment)")
		runs       = flag.Int("runs", 3, "repetitions per timing (shard experiment)")
		nItems     = flag.Int("items", 300, "items in the supply federation (cost experiment)")
		nSuppliers = flag.Int("suppliers", 30, "suppliers in the supply federation (cost experiment)")
		nShardCust = flag.Int("shard-n", 240, "customers across the shard fleet (shard experiment)")
		check      = flag.Bool("check", false, "fail unless the gated experiments (cost, shard) meet their bars")
	)
	flag.Parse()

	ns, err := parseInts(*sizes)
	fail(err)
	ks, err := parseInts(*browseKs)
	fail(err)
	ts, err := parseInt64s(*thresholds)
	fail(err)

	run := func(name string, f func() experiment.Table) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Println(f())
	}
	run("lazy", func() experiment.Table { return experiment.LazyVsEager(ns, *ordersPer, ks) })
	run("compose", func() experiment.Table { return experiment.Composition(ns, ts) })
	run("decontext", func() experiment.Table {
		return experiment.Decontext(ns[len(ns)-1], []int{2, 10, 50})
	})
	run("gby", func() experiment.Table { return experiment.GroupBy(ns, *ordersPer) })
	run("ablate", func() experiment.Table { return experiment.Ablation(ns[len(ns)-1]) })
	if *exp == "all" || *exp == "cost" {
		table, result := experiment.CostBased(*nItems, *nSuppliers)
		fmt.Println(table)
		fail(experiment.WriteCostJSON("BENCH_cost.json",
			fmt.Sprintf("%d items, %d suppliers, 2 servers", *nItems, *nSuppliers), result))
		if *check {
			fail(result.Check())
		}
	}
	if *exp == "all" || *exp == "shard" {
		table, result := experiment.Sharded(*nShardCust, *runs)
		fmt.Println(table)
		fail(experiment.WriteShardJSON("BENCH_shard.json",
			fmt.Sprintf("%d customers, 3-shard wire fleet, 2ms injected latency", *nShardCust), result))
		if *check {
			fail(result.Check())
		}
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad number %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInt64s(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mixbench:", err)
		os.Exit(1)
	}
}
