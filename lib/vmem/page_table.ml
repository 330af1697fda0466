type prot = Read_only | Read_write

type page = {
  number : int;
  mutable prot : prot;
  mutable dirty : bool;
  mutable twin : Bytes.t option;
}

type t = {
  page_size : int;
  shift : int;  (* log2 page_size: an address's page is [addr lsr shift] *)
  pages : (int, page) Hashtbl.t;
}

let create ~page_size =
  if not (Midway_util.Pow2.is_power_of_two page_size) then
    invalid_arg "Page_table.create: page_size must be a positive power of two";
  { page_size; shift = Midway_util.Pow2.log2 page_size; pages = Hashtbl.create 256 }

let page_size t = t.page_size

let page_shift t = t.shift

(* [Hashtbl.find] rather than [find_opt], whose [Some] would allocate
   on every store the vm backend traps. *)
let find t number =
  match Hashtbl.find t.pages number with
  | p -> p
  | exception Not_found ->
      let p = { number; prot = Read_only; dirty = false; twin = None } in
      Hashtbl.replace t.pages number p;
      p

let page_of_addr t addr = find t (addr lsr t.shift)

let page_base t p = p.number * t.page_size

let pages_in_range t ~addr ~len =
  if len < 0 then invalid_arg "Page_table.pages_in_range: negative length";
  if len = 0 then []
  else begin
    let first = addr lsr t.shift and last = (addr + len - 1) lsr t.shift in
    List.init (last - first + 1) (fun i -> find t (first + i))
  end

let dirty_pages t =
  Hashtbl.fold (fun _ p acc -> if p.dirty then p :: acc else acc) t.pages []
  |> List.sort (fun a b -> compare a.number b.number)

let fault _t p ~twin =
  p.twin <- Some twin;
  p.dirty <- true;
  p.prot <- Read_write

let fault_on_write t ~addr ~contents =
  let p = page_of_addr t addr in
  match p.prot with
  | Read_write -> None
  | Read_only ->
      if Bytes.length contents <> t.page_size then
        invalid_arg "Page_table.fault_on_write: contents must be page-sized";
      fault t p ~twin:(Bytes.copy contents);
      Some p

let clean _t p =
  p.twin <- None;
  p.dirty <- false;
  p.prot <- Read_only
