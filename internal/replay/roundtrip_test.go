package replay

import (
	"fmt"
	"reflect"
	"testing"

	"qserve/internal/checkpoint"
	"qserve/internal/protocol"
	"qserve/internal/worldmap"
)

// fillEvery sets every field reachable from v to a distinct non-zero
// value: numbers from the counter n (floats in eighths, so the wire's
// 1/8-unit coordinates hold them exactly), strings "f<n>", and slices to
// one filled element. A decoder that drops a field, or decodes it into
// the wrong destination, then breaks Decode(Encode(x)) == x.
func fillEvery(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillEvery(t, v.Field(i), n)
		}
		return
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillEvery(t, v.Index(0), n)
		return
	}
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int:
		v.SetInt(int64(*n))
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) / 8)
	case reflect.String:
		v.SetString(fmt.Sprintf("f%d", *n))
	default:
		t.Fatalf("fillEvery: no filler for %s; extend it", v.Type())
	}
}

// filled returns a *T with every field set by fillEvery.
func filled[T any](t *testing.T) *T {
	x := new(T)
	n := 0
	fillEvery(t, reflect.ValueOf(x).Elem(), &n)
	return x
}

// TestWireRoundTripsFillEveryField round-trips every wire3 message, every
// QRPL record kind and the QCKP entity and client records with all of
// their fields set, so no field can silently fall off the wire. The
// fields that are off the wire on purpose are restored by hand below,
// each with its reason.
func TestWireRoundTripsFillEveryField(t *testing.T) {
	t.Run("wire3", func(t *testing.T) {
		snap := filled[protocol.Snapshot](t)
		d := &snap.Delta[0]
		d.Bits = protocol.DNew // only a new entity carries every state field
		d.State.ID = d.ID      // carried once, in EntityDelta.ID
		msgs := []any{
			filled[protocol.Connect](t),
			filled[protocol.Move](t),
			filled[protocol.Ping](t),
			filled[protocol.Accept](t),
			filled[protocol.Reject](t),
			snap,
			filled[protocol.Disconnected](t),
			filled[protocol.Pong](t),
		}
		for _, msg := range msgs {
			var w protocol.Writer
			if err := protocol.Encode(&w, msg); err != nil {
				t.Fatal(err)
			}
			got, err := protocol.Decode(w.Bytes())
			if err != nil {
				t.Fatalf("%T: %v", msg, err)
			}
			if !reflect.DeepEqual(got, msg) {
				t.Errorf("%T round trip:\n got %+v\nwant %+v", msg, got, msg)
			}
		}
	})

	m, err := worldmap.GenerateArena(worldmap.DefaultArenaConfig())
	if err != nil {
		t.Fatal(err)
	}

	t.Run("qrpl", func(t *testing.T) {
		// Each record kind carries the Item fields listed; Kind is the tag.
		carried := map[uint8][]string{
			KindTick:       {"DtNs"},
			KindMove:       {"Client", "Seq", "Cmd"},
			KindConnect:    {"Client", "Ent", "Thread", "Name"},
			KindDisconnect: {"Client", "Reason"},
			KindMigrate:    {"Client", "To"},
			KindShed:       {"Level"},
			KindFrame:      {"Frame"},
		}
		full := reflect.ValueOf(filled[Item](t)).Elem()
		covered := map[string]bool{"Kind": true}
		for kind := KindTick; kind <= KindFrame; kind++ {
			it := Item{Kind: kind}
			for _, name := range carried[kind] {
				reflect.ValueOf(&it).Elem().FieldByName(name).Set(full.FieldByName(name))
				covered[name] = true
			}
			lg := &Log{WorldSeed: 3, ProtoVer: 5, Map: m, Items: []Item{it}, HasEnd: true, EndFrames: 7, EndDigest: 11}
			data, err := lg.Encode()
			if err != nil {
				t.Fatal(err)
			}
			got, err := Decode(data)
			if err != nil {
				t.Fatalf("kind %d: %v", kind, err)
			}
			if len(got.Items) != 1 || got.Items[0] != it {
				t.Errorf("kind %d round trip:\n got %+v\nwant %+v", kind, got.Items, it)
			}
			if got.WorldSeed != 3 || got.ProtoVer != 5 || !got.HasEnd || got.EndFrames != 7 || got.EndDigest != 11 {
				t.Errorf("kind %d: log header or end summary did not round-trip", kind)
			}
		}
		for i := 0; i < full.NumField(); i++ {
			if name := full.Type().Field(i).Name; !covered[name] {
				t.Errorf("Item.%s is carried by no record kind", name)
			}
		}
	})

	t.Run("qckp", func(t *testing.T) {
		ent, cli := filled[checkpoint.EntityRec](t), filled[checkpoint.ClientRec](t)
		ck := &checkpoint.Checkpoint{
			Map: m, Frame: 9, BaseFrame: 8, Capacity: 1 << 16, HighWater: 1 << 16,
			Entities: []checkpoint.EntityRec{*ent},
			Clients:  []checkpoint.ClientRec{*cli},
		}
		data, err := ck.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := checkpoint.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Entities) != 1 || got.Entities[0] != *ent {
			t.Errorf("EntityRec round trip:\n got %+v\nwant %+v", got.Entities, *ent)
		}
		if len(got.Clients) != 1 || !reflect.DeepEqual(got.Clients[0], *cli) {
			t.Errorf("ClientRec round trip:\n got %+v\nwant %+v", got.Clients, *cli)
		}
	})
}
