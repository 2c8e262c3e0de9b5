package sim

// SetReference turns the engine's reference switch on or off: with it
// on, every fast path (incremental memos, batched allocation faulting,
// due-gated pipeline hooks) takes its slow reference path instead. Call
// it between New and Run. Only tests can reach it, so no configuration
// surface, runcache key or public option ever sees the switch.
func SetReference(e *Engine, on bool) { e.reference = on }
