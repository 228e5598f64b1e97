package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"tradefl/internal/game"
)

// TestServedGameCheckedOnce: between a request and the solve of its games,
// each game is checked — validated and its rows derived — exactly once: a
// generated game by the generator, a decoded one by the decoder. The fleet
// and the solvers (dbr and CGBD alike) take the instance as it is.
func TestServedGameCheckedOnce(t *testing.T) {
	s := startGateway(t, Options{})
	base := "http://" + s.Addr()
	explicit := func(plan string, seeds ...int64) string {
		spec := JobSpec{Plan: plan}
		for _, seed := range seeds {
			cfg, err := game.DefaultConfig(game.GenOptions{N: 5, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			spec.Games = append(spec.Games, GameSpec{Config: *cfg})
		}
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	for _, tc := range []struct {
		name, route, body string
		games             int
	}{
		{"generated, dbr", "/v1/jobs", `{"generate":{"count":3,"n":8,"seed":5}}`, 3},
		{"generated, pruned", "/v1/jobs", `{"generate":{"count":3,"n":4,"seed":5}}`, 3},
		{"decoded, pruned", "/v1/jobs", explicit("", 11, 12), 2},
		{"decoded, dbr", "/v1/jobs", explicit("dbr", 13), 1},
		{"decoded, sync", "/v1/solve", explicit("", 14, 15), 2},
		{"generated, sync dbr", "/v1/solve", `{"generate":{"count":2,"n":6,"seed":9},"plan":"dbr"}`, 2},
	} {
		before := game.Checks()
		resp, doc := postJSON(t, base+tc.route, "", tc.body)
		switch tc.route {
		case "/v1/jobs":
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("%s: status %d: %v", tc.name, resp.StatusCode, doc)
			}
			id, _ := doc["id"].(string)
			if st := awaitJob(t, base, id); st["state"] != string(StateDone) {
				t.Fatalf("%s: state %v (%v)", tc.name, st["state"], st["error"])
			}
		default:
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %v", tc.name, resp.StatusCode, doc)
			}
		}
		if got := game.Checks() - before; got != int64(tc.games) {
			t.Errorf("%s: %d checks for %d games, want one each", tc.name, got, tc.games)
		}
	}
}
