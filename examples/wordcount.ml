(* Distributed word count through the Dist_array building blocks — the
   MapReduce/Thrill-inspired bulk-parallel style the paper sketches as
   future work (§VI), built directly on the binding layer (no walled
   garden: the communicator stays accessible throughout).

     dune exec examples/wordcount.exe -- [--check LEVEL] [ranks] *)

open Mpisim

let vocabulary = [| "ocaml"; "mpi"; "kamping"; "zero"; "overhead"; "bindings" |]

let () =
  let ranks = Example_cli.arg 0 int_of_string ~default:6 in
  let words_per_rank = 10_000 in
  let n = ranks * words_per_rank in
  let results, report =
    Engine.run_collect ~check_level:Example_cli.check_level ~ranks (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        (* "Load" the corpus: word ids, skewed towards low ids. *)
        let corpus =
          Kamping_plugins.Dist_array.init comm Datatype.int ~n (fun i ->
              let u = Xoshiro.hash_float ~seed:7 ~stream:1 ~counter:i in
              let k = Array.length vocabulary in
              min (k - 1) (int_of_float (u *. u *. float_of_int k)))
        in
        (* Shuffle + count: the classic reduce-by-key. *)
        let counts =
          Kamping_plugins.Dist_array.reduce_by_key corpus ~key_dt:Datatype.int
            ~value_dt:Datatype.int ~key_of:Fun.id
            ~value_of:(fun _ -> 1)
            ~combine:( + )
        in
        (* Bring the (tiny) result table together on rank 0. *)
        Kamping.Collectives.gather comm
          (Kamping.Serialized.datatype Serial.Codec.(list (pair int int)))
          ~root:0
          [| Array.to_list counts |])
  in
  (match results.(0) with
  | Some per_rank_tables ->
      let totals = Hashtbl.create 8 in
      Array.iter
        (List.iter (fun (k, v) ->
             Hashtbl.replace totals k (v + (try Hashtbl.find totals k with Not_found -> 0))))
        per_rank_tables;
      Printf.printf "word counts over %d words on %d ranks:\n" n ranks;
      Array.iteri
        (fun k w ->
          Printf.printf "  %-10s %d\n" w (try Hashtbl.find totals k with Not_found -> 0))
        vocabulary;
      let sum = Hashtbl.fold (fun _ v acc -> acc + v) totals 0 in
      assert (sum = n)
  | None -> ());
  Printf.printf "simulated time: %s\n" (Sim_time.to_string report.Engine.max_time)
