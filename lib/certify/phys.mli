(** Physical-identity tables: keys are values viewed through [Obj.repr],
    equal only when they are the same heap block ([==]).  Certificates,
    and the engine structures they are built from, are DAGs; memoizing on
    identity cuts re-walks of shared nodes, so encoding, checking and
    certificate generation stay linear in the number of distinct nodes.

    Keys hash with the structural [Hashtbl.hash], so physically distinct
    but structurally equal keys share a bucket and are told apart by
    [==]. *)

include Hashtbl.S with type key = Obj.t
