package hawaii

import (
	"iprune/internal/nn"
	"iprune/internal/tile"
)

// The paper's Section I contrasts two progress-preservation designs:
// HAWAII footprints every accelerator output with a job counter (fine
// granularity, minimal re-execution), while SONIC/TAILS preserves at
// task granularity — loop indices saved when an atomic task finishes,
// with the whole interrupted task re-executed after a failure. This file
// models the task-level discipline so the trade-off can be simulated
// and benchmarked against the job-level engine the rest of the package
// implements.

// taskIndicatorBytes is the progress indicator of a task-level runtime:
// a handful of loop indices rather than one job counter.
const taskIndicatorBytes = 16

// BuildTaskSchedule lowers a layer into atomic tasks: one task adds up
// the ops of one (output-column tile × k-panel) group of the tile.Ops
// cursor — every surviving block row of one k-block, the unit the
// input-stationary loop naturally brackets.
// Within a task, outputs accumulate in VM; the task's outputs and loop
// indices are written back only when it completes, so the write stream
// cannot overlap the task's compute (SerialWrite). A failure inside a
// task loses the whole task: RefetchBytes covers all its operands.
//
// Each returned Op therefore *is* one task, priced like a schedule op;
// the CostSim executes task schedules unchanged.
func BuildTaskSchedule(spec *tile.LayerSpec, mask *nn.BlockMask, cfg tile.Config) []Op {
	var tasks []Op
	for op := tile.Ops(spec, mask); op.Next(); {
		b := op.Bytes(tile.Intermittent, cfg)
		if op.FirstInPanel {
			// A fully pruned k-panel issues no op and so gets no task.
			tasks = append(tasks, Op{Layer: spec.Index, InputRead: b.Input, IndWrite: taskIndicatorBytes, SerialWrite: true})
		}
		task := &tasks[len(tasks)-1]
		task.MACs += op.MACs()
		task.Jobs += op.Jobs()
		task.WeightRead += b.Weight
		task.OutWrite += b.Output
		task.RefetchBytes = task.WeightRead + task.InputRead + task.OutWrite
	}
	return priceOps(tasks, tile.Intermittent, cfg)
}

// TaskScheduleFromNetwork builds the whole-model task schedule.
func TaskScheduleFromNetwork(net *nn.Network, specs []tile.LayerSpec, cfg tile.Config) []Op {
	prunables := net.Prunables()
	var tasks []Op
	for i := range specs {
		tasks = append(tasks, BuildTaskSchedule(&specs[i], prunables[i].Mask(), cfg)...)
	}
	return tasks
}
