package explore_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/javacard"
	"repro/internal/journal"
	"repro/internal/serve"
	"repro/internal/tear"
)

// pinnedSweepDigests are the SHA-256 digests of served /v1/sweep NDJSON
// bodies over a fixed grid: layers {1, 2} × every SFR organization ×
// every address map × one case-study workload per body, crossed with
// the fault×arbitration axes ("faults") and with the tear×journal axes
// ("tears"). They were recorded before the layer-2 request slab and the
// ring-queued arbiter mux replaced the append-grown queues.
//
// The golden gate compares core.SetReference(true) with the optimized
// path, but the layer-2 bus and the arbiter mux have no reference
// switch: a drift in either moves both sides alike. These digests pin
// the served bytes themselves, so any change to a cycle, a timing
// field, an energy bit or a retry count of any layer-1/2 run — clean,
// faulted, contended, torn or journaled — fails here.
var pinnedSweepDigests = map[string]string{
	"faults/L1/arith-loop":  "d5fe8c623a4a7ed331f0d2807188d632f1d176e48d35cbdf97781e30329bad51",
	"faults/L1/stack-churn": "f3f2f12c15c6ed4b2aa47a1d9ed41ec9a54a3498082d7e85117d05944203f2c3",
	"faults/L1/wallet":      "f8d7b6f3279ca255137a9669b34ee393edf2108bf6fbb605ac1fb856ed8bae42",
	"faults/L2/arith-loop":  "04a8d24e73b4a5920fa2d461c2947e92baa2794ba36029d0d6a55abfe7b1f332",
	"faults/L2/stack-churn": "464fc1e9fe93a46e33f063da41707d4ebfe48662f5c54c4af6b0bf1fe0bc8b7b",
	"faults/L2/wallet":      "30abf70d63dc19e383bfabd673540f34249d3969ccb2d399cad3579864e9d6f0",
	"tears/L1/arith-loop":   "a4cbc30e2260b08878dbf5d07940a33552110b4247ab58a9157b5af0a0228a40",
	"tears/L1/stack-churn":  "1ccff550ce04f5609012a568e479185860f40a2cf4b76db93737e28d2fd8f919",
	"tears/L1/wallet":       "aacb394f39b091d8e8e3763cb88b7eb17991160cb4878272aec3763200f85cc4",
	"tears/L2/arith-loop":   "0d3395f8ce5c0c8cd79ff084128361f4fda5ff8bae2bd25f3ebe4cbe070df8ca",
	"tears/L2/stack-churn":  "0051cf39505cf8d58c3ce55d8560b182e9b7831880af114b5c461295d825169f",
	"tears/L2/wallet":       "7336e47798d6339a3b43e55310ece72b05490d5ad06e114d350be1e3676cc25d",
}

func TestPinnedSweepBodyDigests(t *testing.T) {
	s := serve.New(serve.Options{Workers: 1, SweepWorkers: 1})
	defer s.Close()
	h := s.Handler()
	post := func(req serve.SweepRequest) ([]byte, string) {
		t.Helper()
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(raw)))
		if rec.Code != http.StatusOK {
			t.Fatalf("sweep %s: status %d: %s", raw, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes(), rec.Header().Get("X-Cache")
	}
	var orgs []string
	for _, o := range javacard.Organizations {
		orgs = append(orgs, o.String())
	}
	grids := []struct {
		name string
		req  serve.SweepRequest
	}{
		{"faults", serve.SweepRequest{Faults: fault.Names, Arbs: append([]string{"none"}, explore.ArbPolicies...)}},
		{"tears", serve.SweepRequest{Tears: tear.Names, Journals: journal.Names}},
	}
	for _, g := range grids {
		for _, layer := range []int{1, 2} {
			for _, w := range javacard.Workloads() {
				name := fmt.Sprintf("%s/L%d/%s", g.name, layer, w.Name)
				req := g.req
				req.Layers = []int{layer}
				req.Orgs = orgs
				req.AddrMaps = explore.AllAddrMaps
				req.Workloads = []string{w.Name}
				body, outcome := post(req)
				if outcome != "miss" {
					t.Fatalf("%s: first request was a %s", name, outcome)
				}
				sum := sha256.Sum256(body)
				got := hex.EncodeToString(sum[:])
				want, ok := pinnedSweepDigests[name]
				if !ok {
					t.Fatalf("%s: no pinned digest", name)
				}
				if got != want {
					t.Errorf("%s: body digest %s, pinned %s (%d bytes)", name, got, want, len(body))
				}
				again, outcome := post(req)
				if outcome != "hit" || !bytes.Equal(again, body) {
					t.Errorf("%s: cached replay (%s) differs from the computed body", name, outcome)
				}
			}
		}
	}
}
