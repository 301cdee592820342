// pmcheckd: a guided tour of the trace-ingestion daemon.
//
// The example runs the fleet scenario the daemon exists for, entirely in
// one process so it needs no setup:
//
//  1. start a pmcheckd server on a loopback listener, with a per-tenant
//     event budget and its own metrics registry;
//  2. run three instrumented application instances concurrently, each
//     streaming its trace events live into the daemon through the network
//     EventSink client (no instance retains its trace — analysis happens
//     at ingest, on the daemon's per-tenant hawkset.Stream);
//  3. collect each tenant's race report from its Finish exchange; one
//     instance also keeps its trace locally and byte-compares the daemon's
//     document against the offline analysis — the differential invariant
//     that makes the daemon trustworthy;
//  4. drain the daemon (the SIGTERM path) and print the per-tenant metrics
//     table: ingest counters plus the analysis working-set gauges whose
//     flat high-water marks demonstrate bounded memory per tenant.
//
// Run it with:
//
//	go run ./examples/pmcheckd
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"sync"

	"hawkset/internal/apps"
	"hawkset/internal/hawkset"
	"hawkset/internal/obs"
	"hawkset/internal/pmcheckd"
	"hawkset/internal/report"
	"hawkset/internal/ycsb"

	_ "hawkset/internal/apps/fastfair"
	_ "hawkset/internal/apps/pclht"
	_ "hawkset/internal/apps/wipe"
)

func main() {
	fmt.Println("=== step 1: start the daemon ===")
	metrics := obs.NewRegistry()
	srv, err := pmcheckd.NewServer(pmcheckd.Config{
		Dir:                "pmcheckd-example-store",
		Analysis:           hawkset.DefaultConfig(),
		MaxEventsPerTenant: 2_000_000,
		Metrics:            metrics,
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	addr := ln.Addr().String()
	fmt.Printf("  listening on %s, store in pmcheckd-example-store/\n\n", addr)

	fmt.Println("=== step 2: three instrumented instances stream concurrently ===")
	instances := []struct {
		app  string
		seed int64
	}{
		{"Fast-Fair", 1},
		{"P-CLHT", 2},
		{"WIPE", 3},
	}
	const ops = 2000
	var wg sync.WaitGroup
	docs := make([][]byte, len(instances))
	for i, inst := range instances {
		wg.Add(1)
		go func(i int, app string, seed int64) {
			defer wg.Done()
			doc, err := streamOne(addr, app, seed, ops, i == 0)
			if err != nil {
				log.Fatalf("%s: %v", app, err)
			}
			docs[i] = doc
		}(i, inst.app, inst.seed)
	}
	wg.Wait()
	fmt.Println()

	fmt.Println("=== step 3: every tenant got its report back ===")
	for i, inst := range instances {
		var d report.Document
		if err := json.Unmarshal(docs[i], &d); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s %3d race report(s), %6d PM accesses analyzed\n",
			inst.app, len(d.Races), d.Stats.PMAccesses)
	}
	fmt.Println()

	fmt.Println("=== step 4: drain (the SIGTERM path) and read the tenant table ===")
	names := srv.TenantNames()
	if err := srv.Drain(); err != nil {
		log.Fatal(err)
	}
	if err := <-serveDone; err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-20s %10s %10s %14s %8s\n", "TENANT", "SEGMENTS", "EVENTS", "OPEN-STORES", "LINES")
	for _, name := range names {
		snap := srv.TenantSnapshot(name)
		fmt.Printf("  %-20s %10d %10d %14d %8d\n", name,
			snap.Counter("pmcheckd.tenant.segments"),
			snap.Counter("pmcheckd.tenant.events"),
			snap.GaugeMax("hawkset.replay.open_stores"),
			snap.GaugeMax("hawkset.replay.lines"))
	}
	total := metrics.Snapshot()
	fmt.Printf("\n  daemon totals: %d conns, %d segments, %d events, %d streams finished\n",
		total.Counter("pmcheckd.conns"), total.Counter("pmcheckd.segments"),
		total.Counter("pmcheckd.events"), total.Counter("pmcheckd.streams_finished"))
	fmt.Println("\nThe OPEN-STORES/LINES high-water marks are per-tenant working-set")
	fmt.Println("gauges: they stay near the application's live PM footprint no matter")
	fmt.Println("how many events stream through — ingest memory is bounded per tenant.")
}

// streamOne runs one instrumented application instance with its trace
// streamed to the daemon, and returns the daemon's report document. With
// verify the trace is also retained locally and the daemon document is
// byte-compared against the offline analysis.
func streamOne(addr, appName string, seed int64, ops int, verify bool) ([]byte, error) {
	entry, err := apps.Lookup(appName)
	if err != nil {
		return nil, err
	}
	w := ycsb.Generate(entry.Spec(ops), seed)
	workload := fmt.Sprintf("ycsb ops=%d seed=%d", ops, seed)
	tenant := fmt.Sprintf("%s-seed%d", entry.Name, seed)

	rt := apps.NewRuntime(entry, apps.RunConfig{Seed: seed, NoTrace: !verify})
	client, err := pmcheckd.NewClient(rt.Trace.Sites, pmcheckd.ClientConfig{
		Addr: addr, Tenant: tenant, App: entry.Name, Workload: workload,
	})
	if err != nil {
		return nil, err
	}
	defer client.Close()
	rt.EventSink = client.Feed
	if err := apps.RunOn(rt, entry.Factory(rt, false), w); err != nil {
		return nil, err
	}
	doc, err := client.Finish()
	if err != nil {
		return nil, err
	}
	mode := "trace discarded at source"
	if verify {
		res := hawkset.Analyze(rt.Trace, hawkset.DefaultConfig())
		var local bytes.Buffer
		if err := report.New(res, entry.Name, workload, nil).WriteJSON(&local); err != nil {
			return nil, err
		}
		if !bytes.Equal(doc, local.Bytes()) {
			return nil, fmt.Errorf("daemon document differs from offline analysis")
		}
		mode = "verified byte-identical to offline Analyze"
	}
	fmt.Printf("  %-12s streamed as tenant %-18s (%s)\n", entry.Name, tenant, mode)
	return doc, nil
}
