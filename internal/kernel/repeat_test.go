package kernel

import (
	"reflect"
	"testing"

	"repro/internal/mcu"
)

// radioPollSrc transmits eight radio bytes, busy-waiting on TX-ready before
// each. Under the rewriter the wait's backward jump becomes a branch trap,
// so the wait is a trap-closed poll loop the fused tier fast-forwards.
const radioPollSrc = `
main:
    ldi r20, 8
next:
    out RDR, r20
txw:
    in r16, RSR
    sbrs r16, 0
    rjmp txw
    dec r20
    brne next
    break
`

// TestPollRepeatsMatchStepwise runs two tasks of one program, so they share
// its code and its poll loop's leader, under a slice so short that they
// preempt each other mid-spin, and a switch often lands a task back on that
// leader. The default run fast-forwards the spins and books their branch
// traps through the kernel's repeater; every clock and ledger must still
// equal the stepwise run's. A repeat priced from an iteration that carried
// a context switch would move the clock.
func TestPollRepeatsMatchStepwise(t *testing.T) {
	nat := naturalize(t, "radiopoll", radioPollSrc)
	run := func(stepwise bool) (*Kernel, []*Task) {
		cfg := Config{SliceCycles: 200, BranchInterval: 16}
		m := mcu.New()
		m.SetStepwise(stepwise)
		k := New(m, cfg)
		var tasks []*Task
		for _, name := range []string{"a", "b"} {
			task, err := k.AddTask(name, nat)
			if err != nil {
				t.Fatal(err)
			}
			tasks = append(tasks, task)
		}
		if err := k.Boot(); err != nil {
			t.Fatal(err)
		}
		if err := k.Run(2_000_000); err != nil {
			t.Fatal(err)
		}
		return k, tasks
	}
	k, tasks := run(false)
	sk, stasks := run(true)
	if st := k.M.TranslationStats(); st.SpinInsts == 0 {
		t.Fatalf("no poll iteration fast-forwarded: %+v", st)
	}
	if k.Stats.Preemptions == 0 {
		t.Fatal("the tasks never preempted each other")
	}
	m, sm := k.M, sk.M
	if m.Cycles() != sm.Cycles() || m.Instructions() != sm.Instructions() || m.IdleCycles() != sm.IdleCycles() {
		t.Errorf("cycles/instructions/idle %d/%d/%d, stepwise %d/%d/%d",
			m.Cycles(), m.Instructions(), m.IdleCycles(), sm.Cycles(), sm.Instructions(), sm.IdleCycles())
	}
	if k.Stats != sk.Stats {
		t.Errorf("kernel stats %+v,\nstepwise %+v", k.Stats, sk.Stats)
	}
	for i, task := range tasks {
		s := stasks[i]
		if task.ServiceCalls != s.ServiceCalls || task.KernelCycles != s.KernelCycles ||
			task.RunCycles() != s.RunCycles() || task.Switches != s.Switches ||
			task.branchLeft != s.branchLeft || task.ExitReason != s.ExitReason {
			t.Errorf("task %s ledgers differ from the stepwise run's", task.Name)
		}
	}
	if !reflect.DeepEqual(m.RadioOutput(), sm.RadioOutput()) {
		t.Errorf("radio %v, stepwise %v", m.RadioOutput(), sm.RadioOutput())
	}
}
