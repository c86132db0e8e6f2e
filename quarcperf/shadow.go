package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"quarc/internal/experiments"
	"quarc/internal/service"
	"quarc/internal/store"
)

// The shadow pipeline makes at least shadowCalls in-memory stage calls and
// shadowWrites durable writes, so each median rests on enough samples.
const (
	shadowCalls  = 1000
	shadowWrites = 32
)

// shadowServe times quarcd's request stages one public function at a
// time, outside the server, over a sample of the workload's own results:
// decode and canonical key (RunRequest.Config + RunKey), memory cache
// lookup (Cache.Get), payload encoding (EncodeRun + json.Marshal), and on
// a scratch data directory beside the server's the durable tier: result
// store Put (fsyncs included) and Get, and one job's journal (header and
// events through Journal.Append, then CloseJob's fsync).
func shadowServe(rs []experiments.Result, dir string, vals map[string]float64, t *tally) error {
	if len(rs) == 0 {
		return fmt.Errorf("shadow pipeline: no results")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(filepath.Join(dir, "results"), 1<<30)
	if err != nil {
		return err
	}
	jr, err := store.OpenJournal(filepath.Join(dir, "journal"))
	if err != nil {
		return err
	}
	defer jr.CloseAll()

	cache := service.NewCache(64 << 20)
	keys := make([]string, len(rs))
	bodies := make([][]byte, len(rs))
	payloads := make([][]byte, len(rs))
	var decodeUs, getUs, encodeUs, storeGetUs, putMs, journalMs []float64
	for i, r := range rs {
		keys[i] = service.RunKey(r.Cfg, 1)
		if bodies[i], err = json.Marshal(runRequestFor(r.Cfg)); err != nil {
			return err
		}
		if payloads[i], err = json.Marshal(service.EncodeRun(r, nil)); err != nil {
			return err
		}
		cache.Put(keys[i], payloads[i])
	}
	// The durable tier is exercised at least shadowWrites times; repeats of
	// a small sample are stored under derived keys so every Put and journal
	// is a fresh file.
	for j := 0; j < max(len(rs), shadowWrites); j++ {
		i, key := j%len(rs), keys[j%len(rs)]
		if j >= len(rs) {
			key = digest([]any{key, j})
		}
		t0 := time.Now()
		err := st.Put(key, payloads[i])
		putMs = append(putMs, msSince(t0))
		t.check(err == nil, "shadow store put %d: %v", j, err)
		id := fmt.Sprintf("shadow%06d", j)
		t0 = time.Now()
		err = journalJob(jr, id, key, bodies[i])
		journalMs = append(journalMs, msSince(t0))
		t.check(err == nil, "shadow journal %s: %v", id, err)
	}
	for n := 0; n < shadowCalls; {
		for i, r := range rs {
			n++
			t0 := time.Now()
			var req service.RunRequest
			err := json.Unmarshal(bodies[i], &req)
			key := ""
			if err == nil {
				var cfg experiments.Config
				if cfg, err = req.Config(); err == nil {
					key = service.RunKey(cfg, max(req.Replicates, 1))
				}
			}
			decodeUs = append(decodeUs, usSince(t0))

			t0 = time.Now()
			got, ok := cache.Get(key)
			getUs = append(getUs, usSince(t0))

			t0 = time.Now()
			enc, eerr := json.Marshal(service.EncodeRun(r, nil))
			encodeUs = append(encodeUs, usSince(t0))

			t0 = time.Now()
			disk, derr := st.GetE(key)
			storeGetUs = append(storeGetUs, usSince(t0))
			t.check(err == nil && key == keys[i] && ok && bytes.Equal(got, payloads[i]) &&
				eerr == nil && bytes.Equal(enc, payloads[i]) && derr == nil && bytes.Equal(disk, payloads[i]),
				"shadow lookup %d: key match %v, cache %v, encode err %v, store err %v", i, key == keys[i], ok, eerr, derr)
		}
	}
	vals["service.decode_key_us"] = median(decodeUs)
	vals["service.cache_get_us"] = median(getUs)
	vals["service.encode_us"] = median(encodeUs)
	vals["store.get_us_p50"] = median(storeGetUs)
	vals["store.put_ms_p50"] = median(putMs)
	vals["store.journal_job_ms_p50"] = median(journalMs)
	return nil
}

// journalJob writes the journal of one run job the way quarcd does: a
// header line carrying the request, the queued/running/done state events,
// then CloseJob, which fsyncs the file.
func journalJob(jr *store.Journal, id, key string, body []byte) error {
	hdr, err := json.Marshal(map[string]any{"journal": "quarcd-job", "id": id, "kind": "run", "key": key,
		"created": time.Now().UTC().Format(time.RFC3339Nano), "request": json.RawMessage(body)})
	if err != nil {
		return err
	}
	lines := [][]byte{hdr}
	for _, st := range []service.State{service.StateQueued, service.StateRunning, service.StateDone} {
		b, err := json.Marshal(service.Event{Type: "state", State: st})
		if err != nil {
			return err
		}
		lines = append(lines, b)
	}
	for _, l := range lines {
		if err := jr.Append(id, l); err != nil {
			return err
		}
	}
	jr.CloseJob(id)
	return nil
}

func usSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }
