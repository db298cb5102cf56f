package experiments

import (
	"fmt"

	"qserve/internal/metrics"
	"qserve/internal/simserver"
)

// Visibility is the A/B study for frame-coherent interest management:
// the naive reply phase re-scans and re-encodes the whole entity table
// for every client (O(clients × entities) per frame), while the indexed
// reply phase builds one shared visibility index + entity-state cache
// per frame and assembles each client's snapshot as a merge of
// precomputed spans. Wire output is byte-identical (the golden and
// property tests prove it); this study measures what the inversion does
// to the virtual-time economics across player count × map visibility —
// the reply phase dominates frame time at high player counts (§4), and
// high-visibility maps inflate it further, which is exactly where the
// shared cache pays off most.
func Visibility(o Options) (Result, error) {
	o.fill()
	variants, err := mapVariants(o.Seed)
	if err != nil {
		return Result{}, err
	}

	var r Result
	t := metrics.Table{
		Title: "Visibility index study: naive per-client scan vs shared per-frame cache (sequential server)",
		Header: []string{
			"map", "players", "mode", "reply%", "build%", "rate", "resp ms",
		},
	}
	for _, v := range variants {
		for _, players := range []int{64, 96, 144} {
			for _, naive := range []bool{true, false} {
				mode := "indexed"
				if naive {
					mode = "naive"
				}
				o.Progress("visibility: %s players=%d %s", v.label, players, mode)
				res, err := run(simserver.Config{
					Map:              v.m,
					Players:          players,
					DurationS:        o.DurationS,
					Seed:             o.Seed,
					IndexedSnapshots: !naive,
				})
				if err != nil {
					return Result{}, err
				}
				buildPct := 0.0
				if total := res.Avg.Total(); total > 0 {
					buildPct = 100 * float64(res.Avg.SnapBuildNs) / float64(total)
				}
				reply := res.Avg.Percent(metrics.CompReply)
				t.AddRow(
					v.label,
					fmt.Sprintf("%d", players),
					mode,
					metrics.Pct(reply),
					metrics.Pct(buildPct),
					metrics.F1(res.ResponseRate()),
					metrics.F1(res.ResponseTimeMs()),
				)
				label := fmt.Sprintf("%s/%d/%s", v.key, players, mode)
				r.add("visibility.reply_pct/"+label, "%", reply)
				r.add("visibility.build_pct/"+label, "%", buildPct)
				r.addRun("visibility", label, res)
			}
		}
	}
	r.Tables = []metrics.Table{t}
	return r, nil
}
