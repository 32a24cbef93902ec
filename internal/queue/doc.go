// Package queue implements the durable asynchronous invocation path: a
// per-function queue layered on the global state tier (kvs.Store, usually a
// shardkvs.Ring), so queued work survives the loss of any host the same way
// leases and state already do. Submit enqueues an item into the tier and
// acks immediately with a call id; per-function consumer loops on every host
// claim items, execute them through the runtime's normal scheduling path
// (warm pools, locality-aware placement), and write a durable result record
// awaiters poll for.
//
// Delivery is at-least-once with an exactly-once client view: a claimed
// item is fenced by a tier-side SetEx'd lease, so a consumer that dies
// mid-execution simply stops renewing it and, once the lease expires on
// the tier's clock, the next sweep puts the item back for another
// delivery. Failed executions retry after a bounded exponential backoff
// (the lease doubles as the backoff timer) until RetryMax redeliveries,
// after which the item lands in
// the function's dead-letter set with a CallDeadLettered result. Result
// writes are first-writer-wins: a redelivered execution that finds a result
// already recorded acks without writing, so the client never observes a
// completed call change its outcome.
//
// Chaining is static: Then(fn, next) records in the tier that a successful
// fn completion enqueues next with fn's output as input. The downstream
// item records its parent's call id (mbus.CallRecord.ParentID) and the
// parent's result records the child id, so clients and traces can walk a
// pipeline end to end.
//
// # Concurrency model
//
//   - All shared queue state lives in the tier; the Queue struct itself
//     holds atomic metric counters, the consumer-goroutine registry and,
//     per function, a doorbell channel and the sweep's bookkeeping.
//   - Each function has a ready log, q/log/<fn>/<epoch>: Submit appends
//     the item's 8-byte slot and then adds a permit to that epoch's
//     q/ready counter. A claim takes a permit (INCR -1; handed back if none
//     was left), then a ticket from the epoch's q/head cursor (INCR +1)
//     naming the slot it reads with one GETRANGE. Permits never outnumber
//     written slots, so every ticket names a written slot, and each slot
//     is ticketed once. A claim then SETEXes the item's lease, reads the
//     item and counts the attempt: six tier ops whatever the depth, and no
//     consumer waits on another. Each handle caches the epoch and reads
//     q/epoch/<fn> again only when the one it knows is sealed.
//   - Redelivery is a sweep, off the claim path. At most once per poll
//     interval per function, this handle runs it when a claim finds
//     nothing ready or after a consumer finishes an item. It holds the
//     q/claim/<fn> tier lock, so across hosts each item is put back once.
//     The sweep reads the slots ticketed since its last run and keeps the
//     unretired ones in memory; of those it re-appends, with a permit,
//     every item that is neither acked nor leased: a lapsed lease, a
//     finished backoff, or a claim that died between its ticket and its
//     lease (judged one lease TTL after this handle first read the slot).
//     A slot's generation (the attempt count when it was appended) tells a
//     lapsed claim from one not yet leased. A put-back slot is zeroed, and
//     a sweep re-reads a slot before putting it back, so a slot another
//     host already handled is dropped. Its cost follows the deliveries
//     since the last sweep and the items in flight, not the depth.
//   - Ack deletes the item before its lease, so a sweep that finds the
//     lease gone and the item present never mistakes an acked item for a
//     lapsed claim. The q/pending/<fn> set is only the ack guard: SRem's
//     removed flag releases the depth counter exactly once.
//   - Once per lease TTL, still under the lock, the sweep restores
//     permits lost between an append and its permit (a process killed
//     between the two ops): if no ticket was taken for a lease TTL while
//     slots wait and no permit is left, those slots get permits. A permit
//     restored too many (a claimer that was only slow) makes one ticket
//     overrun the log; that claim absorbs the excess and the sweep
//     redelivers the item that later lands in the skipped slot.
//   - The log is compacted by epochs. Once an epoch's log reaches
//     sealSlots, the sweep seals it: the ready counter drops below zero
//     (open counters are offset by 2^40, so a sealed counter and a deleted
//     one read alike), the head cursor jumps out of range, and the head and
//     log length are recorded in q/seal. It carries the unretired slots
//     into the next epoch (ticketed ones whose item is present stay
//     ticketed; unticketed ones get a permit each) and moves q/epoch on. A
//     submit whose permit finds its epoch sealed either was carried (its
//     slot lies below the recorded length) or appends again to the new
//     epoch; a claim that finds its epoch sealed moves to the new one.
//     An epoch's keys are deleted when the next one is sealed. A sweep
//     that dies mid-seal leaves the seal record; whoever next holds the
//     lock redoes the same carry.
//   - Consumer loops claim until nothing is claimable, then wait on the
//     function's doorbell or a Poll timer on the runtime clock, whichever
//     fires first. Every Submit through this handle, including the chain
//     submit of a completed item, rings the doorbell, so local work starts
//     at once; the poll only picks up submits from other hosts and items
//     the sweep puts back. Close stops claims immediately and waits the
//     loops out.
package queue
