// Command mixql runs one XQuery-subset query against a demo mediator and
// prints the (materialized) result.
//
//	mixql 'FOR $C IN document(&root1)/customer RETURN $C'
//	mixql -data auction -xml 'FOR $K IN document(&auction.camera)/camera WHERE $K/price < 300 RETURN $K'
//	echo 'FOR $R IN document(rootv)/CustRec RETURN $R' | mixql -view
//	mixql -shards :7713,:7714,:7715 -stats 'FOR $R IN document(&fleet)/CustRec RETURN $R'
//
// With -shards, the listed mixserve shard processes (each started with
// -shard-index/-shard-count) are mounted as one sharded view "&fleet"; the
// in-process coordinator fans scans out across them, merges in document
// order, and routes point queries on the partition key to the single
// matching shard. -stats then prints the per-shard wire breakdown.
//
// Data sets: paper (the Figure 2 customers/orders database, default),
// scale (a generated 1000-customer database), auction (the introduction's
// photo-equipment scenario). With -view, the Q1 view of the paper is
// registered as rootv and queries may range over document(rootv).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"mix"
	"mix/internal/shard"
	"mix/internal/wire"
	"mix/internal/workload"
)

func main() {
	var (
		data    = flag.String("data", "paper", "data set: paper|scale|auction")
		useView = flag.Bool("view", false, "register the paper's Q1 view as rootv")
		asXML   = flag.Bool("xml", false, "print the result as XML instead of a tree")
		stats   = flag.Bool("stats", false, "print source transfer statistics")
		metrics = flag.Bool("metrics", false, "print per-operator mediator work")
		plan    = flag.Bool("plan", false, "print the plans instead of running the query")
		trace   = flag.Bool("trace", false, "print every rewrite step (the paper's Figures 14-21, live)")
		planCC  = flag.Int("plan-cache", 0, "memoized plans per pipeline stage (0 = plan caching off)")
		srcCC   = flag.Int("source-cache", 0, "memoized relational result sets (0 = result caching off)")
		pathIdx = flag.Bool("path-index", false, "dataguide label-path index for getD over local XML sources")
		costOpt = flag.Bool("cost-opt", false, "cost-based join reordering and cached-scan substitution")
		costExp = flag.Bool("cost", false, "print the executable plan with per-operator cost estimates (EXPLAIN)")
		remote  = flag.String("remote", "", "run against a mixserve at this address instead of in-process")
		shards  = flag.String("shards", "", "comma-separated mixserve shard addresses: mount the fleet as one sharded rootv view")
		shardSp = flag.String("shard-spec", "", "fleet partitioning spec, e.g. hash:3@CustRec.customer.id (default hash:<K> on the key path)")
	)
	flag.Parse()

	if *shards != "" {
		runFleet(strings.Split(*shards, ","), *shardSp, *stats, *asXML, readQuery())
		return
	}
	if *remote != "" {
		runRemote(*remote, *stats, readQuery())
		return
	}

	med := mix.NewWith(mix.Config{PlanCache: *planCC, SourceCache: *srcCC,
		PathIndex: *pathIdx, CostOpt: *costOpt})
	switch *data {
	case "paper":
		med.AddRelationalSource(workload.PaperDB())
		fail(med.AliasSource("&root1", "&db1.customer"))
		fail(med.AliasSource("&root2", "&db1.orders"))
	case "scale":
		med.AddRelationalSource(workload.ScaleDB("db1", 1000, 5, 42))
		fail(med.AliasSource("&root1", "&db1.customer"))
		fail(med.AliasSource("&root2", "&db1.orders"))
	case "auction":
		med.AddRelationalSource(workload.AuctionDB(200, 10, 7))
	default:
		fail(fmt.Errorf("unknown data set %q", *data))
	}
	if *useView {
		_, err := med.DefineView("rootv", workload.Q1)
		fail(err)
	}

	p, err := med.Prepare(readQuery(), nil)
	fail(err)
	switch {
	case *trace:
		steps, executable, err := p.Trace()
		fail(err)
		for _, s := range steps {
			fmt.Printf("-- %s --\n%s\n", s.Rule, s.Plan)
		}
		fmt.Println("-- final executable plan --")
		fmt.Println(executable)
		return
	case *costExp:
		fmt.Println("-- costed executable plan --")
		fmt.Println(p.ExplainCost())
		return
	case *plan:
		optimized, executable := p.Explain()
		fmt.Println("-- optimized plan --")
		fmt.Println(optimized)
		fmt.Println("-- executable plan --")
		fmt.Println(executable)
		return
	}

	var (
		doc *mix.Document
		m   *mix.Metrics
	)
	if *metrics {
		doc, m, err = p.RunWithMetrics()
	} else {
		doc, err = p.Run()
	}
	fail(err)
	tree := doc.Materialize()
	fail(doc.Err())
	if *asXML {
		fmt.Println(mix.SerializeXML(tree))
	} else {
		fmt.Print(tree.Pretty())
	}
	if *stats {
		s := med.Stats()
		fmt.Fprintf(os.Stderr, "-- %d queries to sources, %d tuples shipped\n",
			s.QueriesReceived, s.TuplesShipped)
		if *planCC > 0 || *srcCC > 0 {
			cs := med.CacheStats()
			fmt.Fprintf(os.Stderr, "-- caches: rewrite %d/%d, compile %d/%d, source %d/%d (hits/misses)\n",
				cs.Rewrite.Hits, cs.Rewrite.Misses, cs.Compile.Hits, cs.Compile.Misses,
				cs.Source.Hits, cs.Source.Misses)
		}
	}
	if *metrics {
		fmt.Fprintf(os.Stderr, "-- mediator work: %s\n", m)
	}
}

func readQuery() string {
	query := strings.Join(flag.Args(), " ")
	if strings.TrimSpace(query) == "" {
		input, err := io.ReadAll(os.Stdin)
		fail(err)
		query = string(input)
	}
	if strings.TrimSpace(query) == "" {
		fail(fmt.Errorf("no query given (argument or stdin)"))
	}
	return query
}

// runRemote runs the query against a mixserve over the wire protocol and, with
// -stats, prints the client's round-trip and bytes-on-wire counters.
func runRemote(addr string, stats bool, query string) {
	c, err := wire.Dial(addr)
	fail(err)
	defer c.Close()
	root, err := c.Query(query)
	fail(err)
	if root != nil {
		xml, err := root.Materialize()
		fail(err)
		fmt.Println(xml)
		fail(root.Release())
	}
	if stats {
		shipped, received, err := c.Stats()
		fail(err)
		fmt.Fprintf(os.Stderr, "-- %d queries to sources, %d tuples shipped\n", received, shipped)
		st := c.WireStats()
		fmt.Fprintf(os.Stderr, "-- wire: %d round trips, %d B sent, %d B received\n",
			st.RequestsSent, st.BytesSent, st.BytesRecv)
		ops := make([]string, 0, len(st.OpBytesSent))
		for op := range st.OpBytesSent {
			ops = append(ops, op)
		}
		sort.Strings(ops)
		for _, op := range ops {
			fmt.Fprintf(os.Stderr, "--   %-12s %7d B sent %9d B received\n", op, st.OpBytesSent[op], st.OpBytesRecv[op])
		}
	}
}

// runFleet mounts a fleet of mixserve shards as the single sharded view
// "&fleet" (each shard serving its slice of rootv) and runs the query
// through an in-process coordinator mediator. With -stats the merged
// per-shard wire breakdown is printed: round trips, bytes each way, breaker
// state and routing counts per member, so a pruned point query is visible
// as a single routed shard.
func runFleet(addrs []string, specStr string, stats, asXML bool, query string) {
	if specStr == "" {
		specStr = fmt.Sprintf("hash:%d@CustRec.customer.id", len(addrs))
	}
	spec, err := shard.ParseSpec(specStr)
	fail(err)
	var members []shard.Member
	for i, addr := range addrs {
		c, err := wire.Dial(strings.TrimSpace(addr))
		fail(err)
		defer c.Close()
		root, err := c.Open("rootv")
		fail(err)
		id := fmt.Sprintf("shard%d", i)
		members = append(members, shard.Member{ID: id, Doc: wire.NewRemoteDoc("&fleet/"+id, root)})
	}
	med := mix.NewWith(mix.Config{Parallelism: len(members) + 1, Prefetch: true})
	d, err := med.AddShardedSource("&fleet", spec, members, shard.Config{})
	fail(err)

	doc, err := med.Query(query)
	fail(err)
	tree := doc.Materialize()
	fail(doc.Err())
	if asXML {
		fmt.Println(mix.SerializeXML(tree))
	} else {
		fmt.Print(tree.Pretty())
	}
	if stats {
		st := d.Stats()
		fmt.Fprintf(os.Stderr, "-- fleet: %d scan(s), %d pruned\n", st.Scans, st.Pruned)
		report := med.HealthReport()
		health := report.Shards["&fleet"]
		ids := make([]string, 0, len(members))
		for _, m := range members {
			ids = append(ids, m.ID)
		}
		sort.Strings(ids)
		for _, id := range ids {
			w := report.Wire["&fleet/"+id]
			state := w.Breaker
			if h, ok := health[id]; ok && h.State != "" && h.State != state {
				state = h.State
			}
			fmt.Fprintf(os.Stderr, "--   %-8s %4d RTs %8d B sent %10d B received  routed %d  breaker %s\n",
				id, w.RoundTrips, w.BytesSent, w.BytesRecv, st.Routes[id], state)
		}
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mixql:", err)
		os.Exit(1)
	}
}
