(** Adaptive tree-building adversaries: budgeted policies.

    The tightness results the paper builds on (Higashikawa et al. [11]
    for CTE, Disser et al. [6] for the Ω(D²) lower bound) construct the
    hidden tree {e online against the algorithm}: the shape of a node's
    subtree is fixed only at the moment a robot reveals the node. This
    module holds the stock policies that make those decisions. A policy
    is a {!Lazy_world.policy}, one more degree rule of {!Lazy_world}:
    {!Lazy_world.adaptive} builds the world around it, keeps the promise
    table and serves the world to the environment ({!Lazy_world.world});
    {!make_rec} does the same for a policy that reads the world it grows.

    A policy sees, at each reveal, the new node's depth, how many robots
    are arriving on it this round, the current round number, and the
    remaining node budget; it returns the number of children to promise
    (clamped to the budgets). Against a {e deterministic} algorithm the
    frozen tree ({!Lazy_world.frozen}) is an ordinary instance on which a
    re-run reproduces the adaptive run exactly — that is how lower-bound
    constructions are "frozen" into concrete trees, and it is asserted in
    the test-suite. *)

val make_rec :
  capacity:int ->
  depth_budget:int ->
  (Lazy_world.t -> Lazy_world.policy) ->
  Lazy_world.t
(** {!Lazy_world.adaptive} with the knot tied, for stateful policies that
    inspect the structure built so far through {!Lazy_world.parent_of},
    {!Lazy_world.child_index} and {!Lazy_world.depth_of_node}. Each result
    must drive exactly one environment.
    @raise Invalid_argument as {!Lazy_world.adaptive}. *)

(** {2 Stock policies} *)

val corridor_crowds : threshold:int -> Lazy_world.policy
(** Crowds of at least [threshold] robots get a single child (the whole
    crowd marches one edge per round, parallelism 1); smaller groups get
    two children (keep splitting them). Targets proportional-splitting
    explorers such as CTE. *)

val thick_comb : Lazy_world.t -> Lazy_world.policy
(** [11]-style comb grown online: a spine node continues with one spine
    child plus one short tooth; teeth die immediately. Proportional
    splitters keep diverting half of every crowd into dead teeth while the
    spine advances one edge per round. Use with {!make_rec}. *)

val greedy_widest : Lazy_world.policy
(** Spend the budget as fast as possible: every reveal takes all remaining
    nodes as children (a shallow bomb). *)

val miser : Lazy_world.policy
(** One child per reveal: the tree degenerates to a path. *)

val random_policy : Bfdn_util.Rng.t -> max_children:int -> Lazy_world.policy
(** Uniform 0..[max_children] children per reveal. *)
