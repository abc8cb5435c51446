(* JavaScript the benchmarks run, shared by the vjs and serverless tests.
   The base64 encoder of fig14, fig15 and faas_js is
   [Vjs.Workload.base64_js_source]. *)

(* faas_js's other two functions, copied from bench/perf/work.ml *)
let checksum =
  {|
function checksum(data) {
  var h = 7;
  for (var i = 0; i < data.length; i++) {
    h = (h * 31 + data[i]) % 1000003;
  }
  return h;
}
|}

let range =
  {|
function range(data) {
  var lo = 255;
  var hi = 0;
  var odd = 0;
  for (var i = 0; i < data.length; i++) {
    var b = data[i];
    if (b < lo) lo = b;
    if (b > hi) hi = b;
    odd += b & 1;
  }
  return lo + ":" + hi + ":" + odd;
}
|}

(* the udf figure's predicate (bench/exp_udf.ml) and the batch driver
   Vdb.Udf's per-query isolate appends to it *)
let udf =
  {|function pred(row) { return (row.v % 3) === 0; }
function __vdb_batch(rows) {
  var out = [];
  for (var i = 0; i < rows.length; i++) {
    out.push(pred(rows[i]));
  }
  return out;
}
|}
