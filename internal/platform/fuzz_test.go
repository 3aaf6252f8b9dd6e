package platform

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/roadnet"
)

// submitOpLen is the encoded size of one Submit op in FuzzSubmit's input:
// opcode, ID, pickup, dropoff, riders, then release, deadline, wait limit
// and direct cost as raw float64 bits (so NaN and ±Inf are reachable).
const submitOpLen = 1 + 1 + 2 + 2 + 1 + 4*8

// FuzzSubmit drives arbitrary Submit/Tick sequences into a platform over
// a GridCity or a small road graph. Whatever the order fields, Submit
// must either admit the order or refuse it with ErrInvalidOrder — never
// panic or wedge — and after Close every admitted order must be served
// or rejected (Served + Rejected == Total).
//
// Ops are read from data in turn: an opcode byte whose low two bits are 3
// fires a Tick; anything else is a Submit followed by the fields of
// submitOpLen. IDs are one byte, so reused IDs are common.
func FuzzSubmit(f *testing.F) {
	f.Add(false, encodeSubmit(nil, 1, 0, 5, 1, 5, 300, 60, 0))
	f.Add(true, encodeSubmit(encodeSubmit(nil, 1, 0, 8, 1, 0, 600, 60, 0), 2, 8, 0, 2, 30, 900, 120, 0))
	f.Fuzz(func(t *testing.T, graph bool, data []byte) {
		var net roadnet.Network = roadnet.NewGridCity(6, 6, 100, 10)
		if graph {
			net = smallGraph(t)
		}
		workers := []*order.Worker{
			{ID: 1, Loc: 0, Capacity: 4},
			{ID: 2, Loc: geo.NodeID(net.NumNodes() - 1), Capacity: 2},
		}
		p, err := New(net, workers, WithMeasuredTime(false))
		if err != nil {
			t.Fatal(err)
		}
		for ops := 0; len(data) > 0 && ops < 64; ops++ {
			if data[0]&3 == 3 {
				data = data[1:]
				if _, err := p.Tick(); err != nil {
					t.Fatalf("tick: %v", err)
				}
				continue
			}
			if len(data) < submitOpLen {
				break
			}
			o := decodeSubmit(data[:submitOpLen])
			data = data[submitOpLen:]
			if err := p.Submit(o); err != nil && !errors.Is(err, ErrInvalidOrder) {
				t.Fatalf("submit %+v: %v, want nil or ErrInvalidOrder", *o, err)
			}
		}
		m, err := p.Close()
		if err != nil {
			t.Fatal(err)
		}
		if m.Served+m.Rejected != m.Total {
			t.Fatalf("ledger leak: total %d, served %d, rejected %d", m.Total, m.Served, m.Rejected)
		}
	})
}

func decodeSubmit(b []byte) *order.Order {
	le := binary.LittleEndian
	f := func(i int) float64 { return math.Float64frombits(le.Uint64(b[7+8*i:])) }
	return &order.Order{
		ID:         int(b[1]),
		Pickup:     geo.NodeID(int16(le.Uint16(b[2:]))),
		Dropoff:    geo.NodeID(int16(le.Uint16(b[4:]))),
		Riders:     int(int8(b[6])),
		Release:    f(0),
		Deadline:   f(1),
		WaitLimit:  f(2),
		DirectCost: f(3),
	}
}

// encodeSubmit appends one Submit op to dst (the inverse of decodeSubmit).
func encodeSubmit(dst []byte, id byte, pickup, dropoff int16, riders int8, release, deadline, wait, direct float64) []byte {
	le := binary.LittleEndian
	dst = append(dst, 0, id)
	dst = le.AppendUint16(dst, uint16(pickup))
	dst = le.AppendUint16(dst, uint16(dropoff))
	dst = append(dst, byte(riders))
	for _, v := range []float64{release, deadline, wait, direct} {
		dst = le.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}
