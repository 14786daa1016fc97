type method_ = Em | Moments | Naive

let method_name = function Em -> "em" | Moments -> "moments" | Naive -> "naive"

type t = {
  method_ : method_;
  theta : float array;
  thetas_by_block : (int * float) list;
  iterations : int;
  log_likelihood : float option;
  sigma : float option;
  truncated_paths : bool;
  converged : bool;
  outlier_eps : float option;
}

let by_block model theta =
  Array.to_list (Array.mapi (fun k id -> (id, theta.(k))) (Model.param_blocks model))

let fallback model =
  let theta = Model.uniform_theta model in
  {
    method_ = Naive;
    theta;
    thetas_by_block = by_block model theta;
    iterations = 0;
    log_likelihood = None;
    sigma = None;
    truncated_paths = false;
    converged = true;
    outlier_eps = None;
  }

let run ?(method_ = Em) ?(noise_sigma = 1.0) ?paths ?outlier model ~samples =
  match method_ with
  | Naive -> { (fallback model) with method_ = Naive }
  | Moments ->
      let r = Moments.estimate ~noise_sigma model ~samples in
      {
        method_;
        theta = r.Moments.theta;
        thetas_by_block = by_block model r.Moments.theta;
        iterations = r.Moments.iterations;
        log_likelihood = None;
        sigma = None;
        truncated_paths = false;
        converged = r.Moments.converged;
        outlier_eps = None;
      }
  | Em ->
      let paths =
        match paths with
        | Some p -> p
        | None -> Paths.enumerate model
      in
      (* The estimator surfaces no trajectory, so don't record one. *)
      let r =
        Em.estimate ~sigma:noise_sigma ~record_trajectory:false ?outlier
          paths ~samples
      in
      {
        method_;
        theta = r.Em.theta;
        thetas_by_block = by_block model r.Em.theta;
        iterations = r.Em.iterations;
        log_likelihood = Some r.Em.log_likelihood;
        sigma = Some r.Em.sigma;
        truncated_paths = Paths.truncated paths;
        converged = r.Em.converged;
        outlier_eps = r.Em.outlier_eps;
      }
