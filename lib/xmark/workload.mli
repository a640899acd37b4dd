(** Update workloads over XMark stores.

    The paper's Figure 9 setup keeps "about 20% of the logical pages unused",
    mimicking a database aged by a series of XUpdate operations; shredding
    with [fill = 0.8] produces that state directly, and {!churn} reproduces
    it the honest way — by actually running inserts and deletes. *)

val churn : Core.Schema_up.t -> ops:int -> seed:int -> int
(** Apply [ops] alternating structural updates (insert a bidder into a random
    open auction / delete a previously inserted bidder), one committed
    transaction each over a private unlogged {!Core.Txn.manager}, leaving the
    document logically similar but the pages fragmented. Returns the number
    of operations actually applied. *)

val insert_bidder_xupdate : auction_id:string -> person:string -> string
(** The XUpdate document for one bidder insertion — the workload unit for the
    concurrency bench and examples. *)

val delete_last_bidder_xupdate : auction_id:string -> string
