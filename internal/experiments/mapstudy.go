package experiments

import (
	"errors"
	"fmt"

	"qserve/internal/metrics"
	"qserve/internal/simserver"
	"qserve/internal/worldmap"
)

// mapVariant is one map of the visibility spectrum MapStudy and
// Visibility sweep; key names it in metric names.
type mapVariant struct {
	key, label string
	m          *worldmap.Map
}

// mapVariants generates the spectrum for seed: a large low-visibility
// maze, the standard experiment maze, and an open arena where everyone
// sees everyone.
func mapVariants(seed int64) ([]mapVariant, error) {
	maze := worldmap.DefaultConfig()
	maze.Seed = seed + 1
	arena := worldmap.DefaultArenaConfig()
	arena.Seed = seed + 1
	low, errLow := worldmap.Generate(maze)
	paper, errPaper := worldmap.Generate(PaperMapConfig(seed))
	full, errFull := worldmap.GenerateArena(arena)
	if err := errors.Join(errLow, errPaper, errFull); err != nil {
		return nil, err
	}
	return []mapVariant{
		{"maze6x6", "maze 6x6 (low visibility)", low},
		{"paper", "maze 4x4 (paper map)", paper},
		{"arena", "arena (full visibility)", full},
	}, nil
}

// MapStudy reproduces the paper's map-choice discussion (§4, §4.1): "we
// notice that the request processing time does not vary considerably,
// whereas the reply processing time may vary between maps by as much as
// 15% of total execution time at server saturation. We believe that this
// is due to different levels of visibility in different maps, with maps
// exhibiting higher visibility incurring higher reply processing times."
//
// It runs the sequential server at a fixed saturating load on the three
// maps of mapVariants.
func MapStudy(o Options) (Result, error) {
	o.fill()
	variants, err := mapVariants(o.Seed)
	if err != nil {
		return Result{}, err
	}

	var r Result
	t := metrics.Table{
		Title: "Map study (§4/§4.1): visibility drives reply processing time",
		Header: []string{
			"map", "avg visible rooms", "exec%", "reply%", "rate", "resp ms",
		},
	}
	for _, v := range variants {
		o.Progress("mapstudy: %s", v.label)
		stats := v.m.ComputeStats()
		res, err := run(simserver.Config{
			Map:       v.m,
			Players:   128,
			DurationS: o.DurationS,
			Seed:      o.Seed,
		})
		if err != nil {
			return Result{}, err
		}
		exec, reply := res.Avg.Percent(metrics.CompExec), res.Avg.Percent(metrics.CompReply)
		t.AddRow(
			v.label,
			fmt.Sprintf("%.1f/%d", stats.AvgVisibleRooms, stats.Rooms),
			metrics.Pct(exec),
			metrics.Pct(reply),
			metrics.F1(res.ResponseRate()),
			metrics.F1(res.ResponseTimeMs()),
		)
		r.add("mapstudy.visible_room_share/"+v.key, "ratio", stats.AvgVisibleRooms/float64(stats.Rooms))
		r.add("mapstudy.exec_pct/"+v.key, "%", exec)
		r.add("mapstudy.reply_pct/"+v.key, "%", reply)
		r.addRun("mapstudy", v.key, res)
	}
	r.Tables = []metrics.Table{t}
	return r, nil
}
