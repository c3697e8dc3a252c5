package parcvet

// The construct catalogue: one row per concurrency API call the
// analyzers understand, saying what the runtime does with each closure
// argument and what the call means for the team or the calling thread.
// Every analyzer classifies calls through the table (a call it does not
// name reads as the zero row) and slotOf, so a new construct is one new
// row; TestCatalogue checks the rows against the real signatures and
// that every exported API taking a func has one.

// role says how the runtime executes a closure passed as one argument.
type role uint8

const (
	// regionBody: every team member runs this one closure.
	regionBody role = iota + 1
	// memberWorkBody: a worksharing body that each member builds in its
	// own frame and runs its share of the iterations with (TC methods,
	// ForReduce, ForChunkedReduce).
	memberWorkBody
	// sharedWorkBody: a worksharing body the whole team shares one
	// closure of (ParallelFor, ParallelForReduce).
	sharedWorkBody
	// taskBody: run asynchronously by a task or a pool worker.
	taskBody
	// serialBody: run under mutual exclusion or by exactly one member.
	serialBody
	// guiBody: delivered on the single event-dispatch thread.
	guiBody
)

// parallel reports whether closures in this role run concurrently with
// other executions of themselves or with their caller.
func (r role) parallel() bool {
	return r == regionBody || r == memberWorkBody || r == sharedWorkBody || r == taskBody
}

// slot is one closure argument of a catalogued call.
type slot struct {
	arg  int // argument index
	role role
	// iters is how many leading body parameters name one iteration:
	// For2D's (i, j), a chunked body's (lo, hi), one for other loops.
	iters int
	// gui says how a guiBody closure reaches the dispatch thread.
	gui string
	// rest extends the slot to every later (variadic) argument.
	rest bool
}

// pairing says whether every team member must reach a call, which the
// team pairs by per-member count, and what skipping it does.
type pairing uint8

const (
	unpaired pairing = iota
	// pairedNoWait: no barrier, so members that skip it pair every
	// later construct with the wrong instance.
	pairedNoWait
	// pairedBarrier: members that reach it wait forever at its barrier.
	pairedBarrier
)

// construct is one catalogue row.
type construct struct {
	slots  []slot
	paired pairing
	// blocks says why the call parks its caller until other work is done.
	blocks string
	// future: the result carries a task's outcome and must be consumed.
	future bool
	// done: the result is a channel that closes on completion, so
	// receiving from it waits.
	done bool
	// diverges names a result that differs between team members;
	// memberID marks one that is the member's own, distinct id.
	diverges string
	memberID bool
	// mutex is "Lock" or "Unlock" for a sync mutex operation.
	mutex string
}

const (
	blocksRegion = "runs a synchronous parallel region to completion"
	notifyGUI    = "a ptask Notify callback (delivered on the event loop)"
	handlerGUI   = "an android.Handler callback (runs on the main looper)"
)

// Argument slots shared by several rows.
var (
	region     = []slot{{arg: 1, role: regionBody}}
	task0      = []slot{{arg: 0, role: taskBody}}
	task1      = []slot{{arg: 1, role: taskBody}}
	task2      = []slot{{arg: 2, role: taskBody}}
	loopBody   = []slot{{arg: 2, role: memberWorkBody, iters: 1}}
	loopBody2D = []slot{{arg: 3, role: memberWorkBody, iters: 2}}
)

var catalogue = map[callee]construct{
	// Pyjama regions and the package-level worksharing constructs.
	{pkgPyjama, "", "Parallel"}:          {slots: region, blocks: blocksRegion},
	{pkgPyjama, "", "ParallelWithStats"}: {slots: region, blocks: blocksRegion},
	{pkgPyjama, "", "ParallelFor"}:       {slots: []slot{{arg: 3, role: sharedWorkBody, iters: 1}}, blocks: blocksRegion},
	{pkgPyjama, "", "ParallelForReduce"}: {slots: []slot{{arg: 4, role: sharedWorkBody, iters: 1}}, blocks: blocksRegion},
	{pkgPyjama, "", "Async"}: {slots: []slot{{arg: 2, role: regionBody},
		{arg: 3, role: guiBody, gui: "a pyjama.Async completion callback (delivered on the event loop)"}}},
	{pkgPyjama, "", "OnGUI"}:     {slots: []slot{{arg: 1, role: guiBody, gui: "a pyjama.OnGUI callback"}}},
	{pkgPyjama, "", "OnGUISync"}: {slots: []slot{{arg: 1, role: guiBody, gui: "a pyjama.OnGUISync callback"}}},

	// Team-member constructs, reached by every member with a closure it
	// built itself. The reductions take the tc as an argument because Go
	// methods cannot carry type parameters. Sections runs its bodies as
	// the iterations of a ForNoWait, so each is a worksharing body with
	// no index.
	{pkgPyjama, "", "ForReduce"}:        {slots: []slot{{arg: 4, role: memberWorkBody, iters: 1}}, paired: pairedBarrier},
	{pkgPyjama, "", "ForChunkedReduce"}: {slots: []slot{{arg: 4, role: memberWorkBody, iters: 2}}, paired: pairedBarrier},
	{pkgPyjama, "TC", "For"}:            {slots: loopBody, paired: pairedBarrier},
	{pkgPyjama, "TC", "ForNoWait"}:      {slots: loopBody, paired: pairedNoWait},
	{pkgPyjama, "TC", "ForChunked"}:     {slots: []slot{{arg: 2, role: memberWorkBody, iters: 2}}, paired: pairedBarrier},
	{pkgPyjama, "TC", "For2D"}:          {slots: loopBody2D, paired: pairedBarrier},
	{pkgPyjama, "TC", "For2DNoWait"}:    {slots: loopBody2D, paired: pairedNoWait},
	{pkgPyjama, "TC", "ForRange"}:       {slots: []slot{{arg: 3, role: memberWorkBody, iters: 1}}, paired: pairedBarrier},
	{pkgPyjama, "TC", "Sections"}:       {slots: []slot{{arg: 0, role: memberWorkBody, rest: true}}, paired: pairedBarrier},
	{pkgPyjama, "TC", "Single"}:         {slots: []slot{{arg: 0, role: serialBody}}, paired: pairedBarrier},
	{pkgPyjama, "TC", "SingleNoWait"}:   {slots: []slot{{arg: 0, role: serialBody}}, paired: pairedNoWait, diverges: "tc.SingleNoWait(...) (true on exactly one member)"},
	{pkgPyjama, "TC", "Master"}:         {slots: []slot{{arg: 0, role: serialBody}}},
	{pkgPyjama, "TC", "Critical"}:       {slots: []slot{{arg: 1, role: serialBody}}},
	{pkgPyjama, "TC", "Ordered"}:        {slots: []slot{{arg: 1, role: serialBody}}},
	{pkgPyjama, "TC", "Barrier"}:        {paired: pairedBarrier},
	{pkgPyjama, "TC", "ThreadNum"}:      {diverges: "tc.ThreadNum()", memberID: true},

	// Parallel Task: creators, waits and the GUI-delivered completions.
	{pkgPtask, "", "Run"}:                 {slots: task1, future: true},
	{pkgPtask, "", "RunWith"}:             {slots: task2, future: true},
	{pkgPtask, "", "RunAfter"}:            {slots: task2, future: true},
	{pkgPtask, "", "RunCtx"}:              {slots: task2, future: true},
	{pkgPtask, "", "RunMulti"}:            {slots: []slot{{arg: 2, role: taskBody, iters: 1}}, future: true},
	{pkgPtask, "", "Invoke"}:              {slots: task1, future: true},
	{pkgPtask, "", "Then"}:                {slots: task1, future: true},
	{pkgPtask, "", "WaitAll"}:             {blocks: "waits for all dependences"},
	{pkgPtask, "Task", "Result"}:          {blocks: "waits for the task"},
	{pkgPtask, "Task", "Done"}:            {done: true},
	{pkgPtask, "Task", "Notify"}:          {slots: []slot{{arg: 0, role: guiBody, gui: notifyGUI}}},
	{pkgPtask, "MultiTask", "Results"}:    {blocks: "waits for every subtask"},
	{pkgPtask, "MultiTask", "Done"}:       {done: true},
	{pkgPtask, "MultiTask", "Notify"}:     {slots: []slot{{arg: 0, role: guiBody, gui: notifyGUI}}},
	{pkgPtask, "MultiTask", "NotifyEach"}: {slots: []slot{{arg: 0, role: guiBody, gui: notifyGUI}}},
	{pkgPtask, "Progress", "Notify"}:      {slots: []slot{{arg: 0, role: guiBody, gui: notifyGUI}}},

	// The core runtime.
	{pkgCore, "Pool", "Submit"}:   {slots: task0},
	{pkgCore, "Pool", "Quiesce"}:  {blocks: "waits for the whole pool to drain"},
	{pkgCore, "Pool", "HelpJoin"}: {blocks: "donates the calling thread to the pool until the join completes"},
	{pkgCore, "Future", "Get"}:    {blocks: "waits for the future"},
	{pkgCore, "Future", "Done"}:   {done: true},

	// The event loop and its Android-style wrappers.
	{pkgEventloop, "Loop", "InvokeLater"}:    {slots: []slot{{arg: 0, role: guiBody, gui: "an eventloop.InvokeLater handler"}}},
	{pkgEventloop, "Loop", "InvokeAndWait"}:  {slots: []slot{{arg: 0, role: guiBody, gui: "an eventloop.InvokeAndWait handler"}}},
	{pkgEventloop, "Loop", "Probe"}:          {blocks: "synchronously measures the loop for the whole probe duration"},
	{pkgAndroid, "Handler", "Post"}:          {slots: []slot{{arg: 0, role: guiBody, gui: handlerGUI}}},
	{pkgAndroid, "Handler", "PostAndWait"}:   {slots: []slot{{arg: 0, role: guiBody, gui: handlerGUI}}},
	{pkgAndroid, "SerialExecutor", "Submit"}: {slots: task0},
	{pkgAndroid, "SerialExecutor", "Wait"}:   {blocks: "waits for the executor to drain"},
	{pkgAndroid, "AsyncTask", "Get"}:         {blocks: "waits for the AsyncTask"},

	// The standard library.
	{"time", "", "Sleep"}:         {blocks: "sleeps"},
	{"sync", "Mutex", "Lock"}:     {mutex: "Lock"},
	{"sync", "Mutex", "Unlock"}:   {mutex: "Unlock"},
	{"sync", "RWMutex", "Lock"}:   {mutex: "Lock"},
	{"sync", "RWMutex", "Unlock"}: {mutex: "Unlock"},
}

// slotOf returns the slot covering argument i of a call to c.
func slotOf(c callee, i int) (slot, bool) {
	for _, s := range catalogue[c].slots {
		if s.arg == i || s.rest && i > s.arg {
			return s, true
		}
	}
	return slot{}, false
}
