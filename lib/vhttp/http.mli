(** Minimal HTTP/1.0 wire format: enough to drive the echo server
    (Figure 4) and the static-file server (Figure 13). *)

type request = {
  meth : string;
  path : string;
  version : string;
  headers : (string * string) list;
  body : string;
}

type response = {
  status : int;
  reason : string;
  resp_headers : (string * string) list;
  resp_body : string;
}

val parse_request : string -> (request, string) result
(** Parse a full request (request line, headers, optional body per
    Content-Length). Rejects malformed request lines and headers. *)

val request_to_string : request -> string

val make_request : ?headers:(string * string) list -> ?body:string -> string -> string -> request
(** [make_request meth path]. A Content-Length header is added when a
    body is present. *)

val parse_response : string -> (response, string) result

val response_to_string : response -> string

val make_response : ?headers:(string * string) list -> status:int -> string -> response
(** Reason phrase derived from the status code (["OK"], ["Not Found"],
    ...); Content-Length added. *)
