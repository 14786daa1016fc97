(** ASCII line charts — every "Figure N" in the evaluation is rendered
    through this.  Each series is a set of (x, y) points; points are
    plotted on a character grid with per-series glyphs and a legend. *)

val line :
  ?x_label:string ->
  ?y_label:string ->
  ?log_x:bool ->
  title:string ->
  (string * (float * float) array) list ->
  string
(** A 64×16 plot area; linear x by default.  Empty series are skipped; an
    entirely empty chart renders just the title. *)
