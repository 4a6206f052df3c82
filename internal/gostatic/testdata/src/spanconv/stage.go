package spanconv

import "context"

// StartStage mimics obs.StartStage, the child-only stage constructor: its
// span may be nil, but the rule asks for the same End.
func StartStage(ctx context.Context, name string) (context.Context, span) {
	_ = name
	return ctx, span{}
}

func stageLeaks(ctx context.Context) {
	ctx, sp := StartStage(ctx, "stageLeaks") // want spanconv
	_ = ctx
	_ = sp
}

func stageDiscards(ctx context.Context) {
	_, _ = StartStage(ctx, "stageDiscards") // want spanconv
}

// stageEnded is the negative control: a stage ended mid-function.
func stageEnded(ctx context.Context) {
	_, sp := StartStage(ctx, "stageEnded")
	sp.End()
}

// stageHandsOff returns its stage span, as depend's per-stage helper does.
func stageHandsOff(ctx context.Context) span {
	_, sp := StartStage(ctx, "stageHandsOff")
	return sp
}
