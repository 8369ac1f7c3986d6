package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/verifysys"
	"repro/internal/watch"
)

// normalize blanks what depends on the wall clock — Time and the IDs
// derived from it — keeping whether PrevID chains to the previous record.
func normalize(recs []*watch.Record, i int) watch.Record {
	r := *recs[i]
	chained := (i == 0 && r.PrevID == "") || (i > 0 && r.PrevID == recs[i-1].ID)
	r.Time, r.ID, r.PrevID = 0, "", fmt.Sprintf("chained=%t", chained)
	return r
}

func ledgerRecords(t *testing.T, dir, name string) []*watch.Record {
	t.Helper()
	led, err := watch.OpenLedger(dir, name)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := led.Records()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// The traced watch_cycles sequence must append exactly the records
// Watcher.CheckDeployment appends, including chaining and drift.
func TestMirrorAppendsWatcherRecords(t *testing.T) {
	honest, ok := watch.FindDeployment("honest")
	if !ok {
		t.Fatal("deployment honest not registered")
	}
	leak, ok := watch.FindDeployment("leak-RegisterLeak")
	if !ok {
		t.Fatal("deployment leak-RegisterLeak not registered")
	}
	// The last check runs honest's name with a silently changed spec, so
	// the drift path (LoadTrace, ClassifyDrift) is compared too.
	drifted := honest
	drifted.Spec = verifysys.SpecFor("RegisterLeak", true, false)
	seq := []watch.Deployment{honest, leak, honest, leak, drifted}
	config := func(dir string) watch.Config {
		return watch.Config{Dir: dir, Seed: 7, Trials: 3, StepsPerTrial: 50, TraceSteps: 120,
			Workers: 1, Build: benchBuild}
	}

	wdir := t.TempDir()
	w := watch.New(config(wdir))
	for _, d := range seq {
		if _, err := w.CheckDeployment(d); err != nil {
			t.Fatal(err)
		}
	}
	mdir := t.TempDir()
	cfg := watch.New(config(mdir)).Config()
	tr := newTracer()
	tr.beginRequest("mirror")
	for _, d := range seq {
		if _, err := mirrorDeployment(cfg, d, tr); err != nil {
			t.Fatal(err)
		}
	}
	tr.endRequest()

	for _, name := range []string{honest.Name, leak.Name} {
		want, got := ledgerRecords(t, wdir, name), ledgerRecords(t, mdir, name)
		if len(want) != len(got) {
			t.Fatalf("%s: watcher appended %d records, mirror %d", name, len(want), len(got))
		}
		for i := range want {
			if wr, gr := normalize(want, i), normalize(got, i); !reflect.DeepEqual(wr, gr) {
				wj, _ := json.Marshal(wr)
				gj, _ := json.Marshal(gr)
				t.Errorf("%s record %d:\n watcher %s\n mirror  %s", name, i+1, wj, gj)
			}
		}
	}
	if recs := ledgerRecords(t, mdir, honest.Name); len(recs[len(recs)-1].Drift) == 0 {
		t.Fatal("changed spec classified no drift: the drift path was not compared")
	}
}
