(* S1 fixture: the [@@hot] contract reaches into submodules — the
   same tuple-per-iteration loop as s1_violation.ml, one module down. *)

module Kernel = struct
  let sum_indexed xs =
    let total = ref 0 in
    for i = 0 to Array.length xs - 1 do
      let pair = (xs.(i), i) in
      total := !total + fst pair + snd pair
    done;
    !total
  [@@hot]
end
