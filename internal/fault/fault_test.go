package fault

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func TestScheduleStringRoundTrip(t *testing.T) {
	in := Schedule{
		{Kind: KillNode, Node: 1, Start: 0.3, End: 0.6},
		{Kind: SlowNode, Node: 0, Start: 0.2, End: 0.8, Factor: 4},
		{Kind: KillNode, Node: 2, Start: 0.5}, // never restarts
		{Kind: CompactionStorm, Node: 0, Start: 0.1, End: 0.9, Factor: 3},
	}
	s := in.String()
	if want := "kill-node@1[0.3:0.6];slow-node@0[0.2:0.8]x4;kill-node@2[0.5];compaction-storm@0[0.1:0.9]x3"; s != want {
		t.Fatalf("String() = %q, want %q", s, want)
	}
	back, err := ParseSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != s {
		t.Fatalf("round trip changed: %q -> %q", s, back.String())
	}
}

func TestParseScheduleRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"", "kill-node", "kill-node@x[0.5]", "kill-node@1", "kill-node@1[half]",
		"kill-node@1[0.5]y2", "kill-node@1[0.2:bad]",
	} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) succeeded, want error", bad)
		}
	}
}

// FuzzParseSchedule feeds ParseSchedule arbitrary strings (schedules
// arrive over the farm wire and from the cell cache): it must never panic,
// and any schedule it accepts must have a canonical String that re-parses
// to the same String.
func FuzzParseSchedule(f *testing.F) {
	f.Add("kill-node@1[0.3:0.6];slow-node@0[0.2:0.8]x4")
	f.Add("compaction-storm@0[0.1:0.9]x3; kill-node@2[0.5]")
	f.Add("replica-lag@+1[1e-1:9e-1]x5e+1")
	f.Add("kill-node@1[0.5:0.2]x0")
	f.Fuzz(func(t *testing.T, in string) {
		sched, err := ParseSchedule(in)
		if err != nil {
			return
		}
		canon := sched.String()
		back, err := ParseSchedule(canon)
		if err != nil {
			t.Fatalf("ParseSchedule(%q) accepted, but its canonical form %q does not re-parse: %v", in, canon, err)
		}
		if got := back.String(); got != canon {
			t.Fatalf("canonical form drifts on re-parse:\n first: %s\nsecond: %s", canon, got)
		}
	})
}

func TestValidateRejectsBadEvents(t *testing.T) {
	cases := []struct {
		sched Schedule
		want  string
	}{
		{Schedule{{Kind: "explode-node", Node: 0, Start: 0.5}}, "unknown kind"},
		{Schedule{{Kind: KillNode, Node: -1, Start: 0.5}}, "negative node"},
		{Schedule{{Kind: KillNode, Node: 0, Start: 1.5}}, "outside [0,1]"},
		{Schedule{{Kind: SlowNode, Node: 0, Start: 0.1, Factor: -2}}, "negative factor"},
		{Schedule{}, "empty"},
	}
	for _, c := range cases {
		err := c.sched.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%v) = %v, want error containing %q", c.sched, err, c.want)
		}
	}
}

// fakeTarget records kill/restart transitions with their virtual times.
type fakeTarget struct {
	events []string
	eng    *sim.Engine
}

func (f *fakeTarget) KillNode(i int) {
	f.events = append(f.events, f.stamp("kill", i))
}

func (f *fakeTarget) RestartNode(p *sim.Proc, i int) {
	p.Sleep(5 * sim.Millisecond) // modeled replay
	f.events = append(f.events, f.stamp("up", i))
}

func (f *fakeTarget) stamp(what string, i int) string {
	return what + "-" + f.eng.Now().String()
}

func TestInjectSchedulesTransitionsAtFractions(t *testing.T) {
	e := sim.NewEngine(1)
	c := cluster.New(e, cluster.ClusterM(2))
	ft := &fakeTarget{eng: e}
	sched := Schedule{{Kind: KillNode, Node: 1, Start: 0.25, End: 0.75}}
	total := 400 * sim.Millisecond
	if err := Inject(e, c.Nodes, ft, sched, total); err != nil {
		t.Fatal(err)
	}
	e.Run(0)
	want := []string{"kill-" + (100 * sim.Millisecond).String(), "up-" + (305 * sim.Millisecond).String()}
	if len(ft.events) != 2 || ft.events[0] != want[0] || ft.events[1] != want[1] {
		t.Fatalf("events = %v, want %v", ft.events, want)
	}
}

func TestInjectRejectsOutOfRangeNode(t *testing.T) {
	e := sim.NewEngine(1)
	c := cluster.New(e, cluster.ClusterM(2))
	ft := &fakeTarget{eng: e}
	err := Inject(e, c.Nodes, ft, Schedule{{Kind: KillNode, Node: 5, Start: 0.5}}, sim.Second)
	if err == nil || !strings.Contains(err.Error(), "node 5") {
		t.Fatalf("err = %v, want out-of-range node error", err)
	}
}

func TestInjectRequiresTargetForKill(t *testing.T) {
	e := sim.NewEngine(1)
	c := cluster.New(e, cluster.ClusterM(1))
	err := Inject(e, c.Nodes, struct{}{}, Schedule{{Kind: KillNode, Node: 0, Start: 0.5}}, sim.Second)
	if err == nil || !strings.Contains(err.Error(), "kill/restart") {
		t.Fatalf("err = %v, want unsupported-target error", err)
	}
	err = Inject(e, c.Nodes, struct{}{}, Schedule{{Kind: ReplicaLag, Node: 0, Start: 0.5}}, sim.Second)
	if err == nil || !strings.Contains(err.Error(), "replication") {
		t.Fatalf("err = %v, want no-replication error", err)
	}
}

func TestSlowNodeWindowRestoresSpeed(t *testing.T) {
	e := sim.NewEngine(1)
	c := cluster.New(e, cluster.ClusterM(1))
	sched := Schedule{{Kind: SlowNode, Node: 0, Start: 0.25, End: 0.5, Factor: 10}}
	if err := Inject(e, c.Nodes, struct{}{}, sched, 400*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Probe compute cost inside and outside the slow window.
	var inWindow, after sim.Time
	e.GoAt(150*sim.Millisecond, "probe1", func(p *sim.Proc) {
		t0 := p.Now()
		c.Nodes[0].Compute(p, sim.Millisecond)
		inWindow = p.Now() - t0
	})
	e.GoAt(300*sim.Millisecond, "probe2", func(p *sim.Proc) {
		t0 := p.Now()
		c.Nodes[0].Compute(p, sim.Millisecond)
		after = p.Now() - t0
	})
	e.Run(0)
	if inWindow != 10*sim.Millisecond {
		t.Errorf("compute inside slow window took %v, want 10ms", inWindow)
	}
	if after != sim.Millisecond {
		t.Errorf("compute after slow window took %v, want 1ms", after)
	}
}

func TestCompactionStormContendsDiskThenStops(t *testing.T) {
	e := sim.NewEngine(1)
	c := cluster.New(e, cluster.ClusterM(1))
	sched := Schedule{{Kind: CompactionStorm, Node: 0, Start: 0, End: 0.5, Factor: 1}}
	if err := Inject(e, c.Nodes, struct{}{}, sched, 200*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	e.Run(sim.Second)
	busy := c.Nodes[0].DiskBusy()
	if busy <= 0 {
		t.Fatalf("storm generated no disk load (busy=%g)", busy)
	}
	// The storm must stop at the window end: utilization over 1s with a
	// 100ms storm window is well under half.
	if busy > 0.5 {
		t.Fatalf("storm did not stop at window end (busy=%g)", busy)
	}
}
