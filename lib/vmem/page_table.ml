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
  pages : page Page_index.t;
}

(* The index's "no page here"; never handed out, so never mutated. *)
let absent = { number = -1; prot = Read_only; dirty = false; twin = None }

let create ~page_size =
  if not (Midway_util.Pow2.is_power_of_two page_size) then
    invalid_arg "Page_table.create: page_size must be a positive power of two";
  { page_size; shift = Midway_util.Pow2.log2 page_size; pages = Page_index.create ~absent }

let page_size t = t.page_size

let page_shift t = t.shift

let add t number =
  let p = { number; prot = Read_only; dirty = false; twin = None } in
  Page_index.set t.pages number p;
  p

(* Inlined: the vm backend looks a page up on every store it traps. *)
let[@inline] find t number =
  let p = Page_index.get t.pages number in
  if p != absent then p else add t number

let[@inline] page_of_addr t addr = find t (addr lsr t.shift)

let peek t addr = Page_index.get t.pages (addr lsr t.shift)

let page_base t p = p.number * t.page_size

let pages_in_range t ~addr ~len =
  if len < 0 then invalid_arg "Page_table.pages_in_range: negative length";
  if len = 0 then []
  else begin
    let first = addr lsr t.shift and last = (addr + len - 1) lsr t.shift in
    List.init (last - first + 1) (fun i -> find t (first + i))
  end

let dirty_pages t =
  let acc = ref [] in
  Page_index.iter (fun p -> if p.dirty then acc := p :: !acc) t.pages;
  List.rev !acc

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
