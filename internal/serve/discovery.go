package serve

import (
	"fmt"
	"net/http"
	"slices"

	"ringsched/internal/engine"
)

// handleAlgorithms is GET /v1/algorithms: the discovery surface,
// generated from the engine registry (plus the huge-ring auto-routing
// threshold), so clients (and the selftest) can enumerate algorithms
// and engines instead of hardcoding names.
func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, r, fmt.Errorf("%w: use GET", errBadRequest))
		return
	}
	s.stats.Inc(statRequests)
	resp := AlgorithmsResponse{Schema: Schema}
	for _, a := range engine.Algorithms {
		ai := AlgorithmInfo{Algorithm: a, Compare: a.Kind == "bucket"}
		for i := range engine.All {
			e := &engine.All[i]
			if e.Supports(engine.Shape{Algorithm: a.Name, Unit: true}) == nil {
				ai.Engines = append(ai.Engines, e.Name)
				ai.Sessions = ai.Sessions || slices.Contains(e.Endpoints, "/v1/session")
			}
		}
		resp.Algorithms = append(resp.Algorithms, ai)
	}
	for i := range engine.All {
		e := &engine.All[i]
		ei := EngineInfo{Name: e.Name, Description: e.Description, Domain: e.Domain, Endpoints: e.Endpoints}
		if e.Huge {
			ei.AutoThreshold = max(s.cfg.BigRingThreshold, 0)
		}
		resp.Engines = append(resp.Engines, ei)
	}
	writeJSON(w, info(r), http.StatusOK, "", resp)
}
