package main

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"time"

	"mpclogic/internal/mpc"
	"mpclogic/internal/mpcd"
	"mpclogic/internal/mpcd/loadgen"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

// restartCycle spills srv to dir and builds its successor from the
// spill, as a kill-and-restart would, with a span around each half.
func restartCycle(srv *mpcd.Server, dir string, cfg mpcd.Config, tr *tracer) (*mpcd.Server, error) {
	var next *mpcd.Server
	var err error
	tr.span("mpcd.snapshot_save", func() { err = srv.SaveSnapshot(dir) })
	if err == nil {
		tr.span("mpcd.snapshot_load", func() { next, err = mpcd.LoadSnapshot(dir, cfg) })
	}
	return next, err
}

// restartProbeCycles is how many restarts a traced run times.
const restartProbeCycles = 5

// restartProbe times whole restarts of the twin server: save, load,
// and the first verified reply from the restored server. control is
// asked, before each cycle and outside the timing, for a request and
// the reply the never-restarted loopback server gives to it; the
// restored twin must answer with the same bytes. It returns the last
// successor.
func restartProbe(twin *mpcd.Server, dir string, cfg mpcd.Config, facts int,
	control func() (request, want []byte, err error), m metricSet) (*mpcd.Server, error) {
	var saves, loads, restarts []float64
	for k := 0; k < restartProbeCycles; k++ {
		request, want, err := control()
		if err != nil {
			return nil, fmt.Errorf("restart probe control reply: %w", err)
		}
		t0 := time.Now()
		if err := twin.SaveSnapshot(dir); err != nil {
			return nil, err
		}
		t1 := time.Now()
		next, err := mpcd.LoadSnapshot(dir, cfg)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		status, raw, _ := (&loadgen.HandlerClient{H: next.Handler()}).Do("POST", "/v1/query", request)
		t3 := time.Now()
		if status != 200 || !bytes.Equal(raw, want) {
			return nil, fmt.Errorf("first reply after restart differs from the control server's: %d %s", status, clip(raw))
		}
		saves = append(saves, ms(t1.Sub(t0)))
		loads = append(loads, ms(t2.Sub(t1)))
		restarts = append(restarts, ms(t3.Sub(t0)))
		twin = next
	}
	m.setMedian("mpcd.snapshot_save_ms", saves)
	m.setMedian("mpcd.snapshot_load_ms", loads)
	m.setMedian("mpcd.restart_ms", restarts)
	size, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	m.set("mpcd.snapshot_bytes_per_fact", ratio(size, facts), 1)
	return twin, nil
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += int(info.Size())
		}
	}
	return total, nil
}

// storeProbe times the checkpoint image codec on the shadow's resident
// sessions — the same clusters, fragment for fragment, the server
// holds.
func storeProbe(sh *shadow, m metricSet) error {
	var enc, dec, size []float64
	for _, id := range sh.sessionIDs() {
		ck := sh.sessions[id].cluster.Checkpoint()
		if ck == nil {
			return fmt.Errorf("shadow session %s has no checkpoint", id)
		}
		store := ck.Store()
		facts := store.TotalFacts()
		if facts == 0 {
			continue
		}
		var buf bytes.Buffer
		t0 := time.Now()
		if err := policy.EncodeStore(&buf, store); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := policy.DecodeStore(bytes.NewReader(buf.Bytes())); err != nil {
			return err
		}
		t2 := time.Now()
		enc = append(enc, float64(t1.Sub(t0))/float64(facts))
		dec = append(dec, float64(t2.Sub(t1))/float64(facts))
		size = append(size, float64(buf.Len())/float64(facts))
	}
	m.setMedian("policy.encode_store_ns_per_fact", enc)
	m.setMedian("policy.decode_store_ns_per_fact", dec)
	m.setMedian("policy.store_bytes_per_fact", size)
	return nil
}

func (sh *shadow) sessionIDs() []string {
	ids := make([]string, 0, len(sh.sessions))
	for id := range sh.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// wireSamples accumulates the wire-codec probe: one sample per
// fragment encoded and decoded.
type wireSamples struct {
	enc, dec, size []float64
}

// add encodes and decodes one non-empty fragment and returns its wire
// image.
func (ws *wireSamples) add(frag *rel.Instance) ([]byte, error) {
	facts := frag.Len()
	t0 := time.Now()
	raw := rel.EncodeInstance(frag)
	t1 := time.Now()
	back, err := rel.DecodeInstance(raw)
	t2 := time.Now()
	if err != nil {
		return nil, err
	}
	if back.Len() != facts {
		return nil, fmt.Errorf("wire round trip lost facts: %d of %d", back.Len(), facts)
	}
	ws.enc = append(ws.enc, float64(t1.Sub(t0))/float64(facts))
	ws.dec = append(ws.dec, float64(t2.Sub(t1))/float64(facts))
	ws.size = append(ws.size, float64(len(raw))/float64(facts))
	return raw, nil
}

func (ws *wireSamples) report(m metricSet) {
	m.setMedian("rel.wire_encode_ns_per_fact", ws.enc)
	m.setMedian("rel.wire_decode_ns_per_fact", ws.dec)
	m.setMedian("rel.wire_bytes_per_fact", ws.size)
}

// wireProbe runs the wire codec over every fragment of every shadow
// session.
func wireProbe(sh *shadow, m metricSet) error {
	var ws wireSamples
	for _, id := range sh.sessionIDs() {
		c := sh.sessions[id].cluster
		for i := 0; i < c.P(); i++ {
			if c.Server(i).IsEmpty() {
				continue
			}
			if _, err := ws.add(c.Server(i)); err != nil {
				return err
			}
		}
	}
	ws.report(m)
	return nil
}

// restart does to every shadow session what a server restart does:
// encode its checkpoint image, decode it, rebuild the cluster from it.
func (sh *shadow) restart() error {
	for _, id := range sh.sessionIDs() {
		sess := sh.sessions[id]
		ck := sess.cluster.Checkpoint()
		if ck == nil {
			return fmt.Errorf("shadow session %s has no checkpoint", id)
		}
		var buf bytes.Buffer
		var store *policy.StableStore
		var err error
		sh.tr.span("policy.encode_store", func() { err = policy.EncodeStore(&buf, ck.Store()) })
		if err != nil {
			return err
		}
		sh.tr.span("policy.decode_store", func() { store, err = policy.DecodeStore(bytes.NewReader(buf.Bytes())) })
		if err != nil {
			return err
		}
		sh.tr.span("mpc.restore_store", func() { sess.cluster = mpc.RestoreStore(store) })
	}
	return nil
}
