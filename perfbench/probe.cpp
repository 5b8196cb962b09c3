// In-process half of the tsg_serve benchmark; perfbench/run.py drives it.
//
//   perfbench_probe gen DIR NAME:EVENTS:SEED...
//       Writes DIR/NAME.tsg for each design (random_marked_graph with
//       m = 2n, serialized with write_sg) and prints one JSON line per design
//       with its event and arc counts, read back from the file the daemon
//       loads.
//
//   perfbench_probe check DIR LOG
//       Recomputes the payload of every answered request in LOG with the
//       in-process reference (execute_request's compile + execute_analysis_
//       payload on the version that served it, or execute_edit_payload on
//       the edited design chain) and compares it byte for byte with the
//       daemon's payload, on four threads.  Prints one JSON summary line.
//
//   perfbench_probe trace DIR LOG
//       Replays LOG one request at a time, calling each layer's public
//       functions itself and timing every call (spans kept in memory).  The
//       reassembled payload must equal the daemon's.  Prints one JSON line
//       with the per-layer metrics, trace.attribution.<kind> included.
//
// LOG holds one line per answered request: {"request": ..., "response": ...},
// both exactly as they crossed the wire.  Batch payloads (sweep, fixed-size
// montecarlo) are compared without their "engine" block, which reports the
// physical execution of a merged (coalesced) run.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/api.h"
#include "core/compiled_graph.h"
#include "core/cycle_time.h"
#include "core/incremental.h"
#include "core/optimize.h"
#include "core/scenario.h"
#include "core/stats.h"
#include "gen/random_sg.h"
#include "sg/sg_io.h"
#include "util/error.h"
#include "util/json.h"
#include "util/strings.h"

namespace {

using namespace tsg;
using clock_type = std::chrono::steady_clock;

double ms_since(clock_type::time_point t0)
{
    return std::chrono::duration<double, std::milli>(clock_type::now() - t0).count();
}

double median(std::vector<double> v)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double sum(const std::vector<double>& v)
{
    double s = 0.0;
    for (double x : v) s += x;
    return s;
}

const char* solver_name(cycle_time_solver solver)
{
    switch (solver) {
    case cycle_time_solver::border_sweep: return "border";
    case cycle_time_solver::howard: return "howard";
    default: return "auto";
    }
}

bool is_batch(const analysis_request& r)
{
    return r.kind == request_kind::sweep ||
           (r.kind == request_kind::montecarlo && !r.options.adaptive);
}

/// The benchmark's kind label: the request kind, with adaptive Monte Carlo
/// split out because it runs the statistics path instead of a batch.
std::string kind_label(const analysis_request& r)
{
    if (r.kind == request_kind::montecarlo && r.options.adaptive)
        return "montecarlo_adaptive";
    return request_kind_name(r.kind);
}

void strip_engine(json_value& doc)
{
    doc.members.erase(std::remove_if(doc.members.begin(), doc.members.end(),
                                     [](const auto& m) { return m.first == "engine"; }),
                      doc.members.end());
    for (auto& member : doc.members) strip_engine(member.second);
    for (json_value& item : doc.items) strip_engine(item);
}

std::string canonical(json_value doc, bool batch)
{
    if (batch) strip_engine(doc);
    return doc.write();
}

/// The cache key the service uses: the request without its id, version
/// pin and deadline.
std::string body_key(const analysis_request& request)
{
    analysis_request canonical_request = request;
    canonical_request.id.clear();
    canonical_request.design.version = 0;
    canonical_request.options.deadline_ms = 0;
    return analysis_request_json(canonical_request).write();
}

// --- the log -------------------------------------------------------------------

struct entry {
    std::string request_text;
    analysis_request request;
    std::string id;
    std::uint64_t version = 0;
    double elapsed_ms = 0.0;    ///< the daemon's service time
    std::string daemon_payload; ///< canonical daemon payload (compact)
};

struct design_log {
    std::string name;
    std::map<std::uint64_t, std::vector<const entry*>> reads; ///< version -> requests
    std::map<std::uint64_t, const entry*> edits;              ///< committed version -> edit
};

std::vector<entry> read_log(const std::string& path)
{
    std::ifstream in(path);
    require(in.good(), "cannot read " + path);
    std::vector<entry> entries;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        const json_value doc = json_parse(line, "log");
        const json_value* req = doc.find("request");
        const json_value* resp = doc.find("response");
        require(req != nullptr && resp != nullptr, "log line needs request and response");
        entry e;
        e.request_text = req->write();
        e.request = parse_analysis_request(*req);
        e.id = e.request.id;
        const json_value* version = resp->find("design_version");
        const json_value* elapsed = resp->find("elapsed_ms");
        const json_value* payload = resp->find("payload");
        require(version != nullptr && elapsed != nullptr && payload != nullptr,
                "log response is not ok: " + e.id);
        e.version = std::stoull(version->text);
        e.elapsed_ms = std::stod(elapsed->text);
        e.daemon_payload = canonical(*payload, is_batch(e.request));
        entries.push_back(std::move(e));
    }
    return entries;
}

std::map<std::string, design_log> group(const std::vector<entry>& entries)
{
    std::map<std::string, design_log> designs;
    for (const entry& e : entries) {
        design_log& d = designs[e.request.design.id];
        d.name = e.request.design.id;
        if (e.request.kind == request_kind::edit)
            d.edits[e.version] = &e;
        else
            d.reads[e.version].push_back(&e);
    }
    return designs;
}

/// Walks one design's version chain in order: read(version, graph) for the
/// requests served at each version, edit(entry, graph) to produce the graph
/// of the version the edit committed.  Version 1 is the file on disk.
template <typename Read, typename Edit>
void walk_chain(const std::string& dir, const design_log& d, Read&& read, Edit&& edit)
{
    auto graph = std::make_shared<const signal_graph>(load_sg(dir + "/" + d.name + ".tsg"));
    std::uint64_t last = 1;
    if (!d.reads.empty()) last = std::max(last, d.reads.rbegin()->first);
    if (!d.edits.empty()) last = std::max(last, d.edits.rbegin()->first);
    for (std::uint64_t v = 1; v <= last; ++v) {
        if (v > 1) {
            const auto it = d.edits.find(v);
            require(it != d.edits.end(), "design " + d.name + ": no edit committed version " +
                                             std::to_string(v));
            graph = edit(*it->second, *graph);
        }
        const auto reads = d.reads.find(v);
        if (reads != d.reads.end()) read(reads->second, graph);
    }
}

struct verdict {
    std::mutex mu;
    std::size_t checked = 0;
    std::vector<std::string> mismatched; ///< request ids

    void record(const entry& e, const std::string* payload)
    {
        const bool same = payload != nullptr &&
                          canonical(json_parse(*payload, "payload"), is_batch(e.request)) ==
                              e.daemon_payload;
        std::lock_guard<std::mutex> lk(mu);
        ++checked;
        if (!same) mismatched.push_back(e.id);
    }

    /// The summary line's leading members.
    void print_head() const
    {
        std::cout << "{\"checked\": " << checked << ", \"mismatched\": [";
        for (std::size_t i = 0; i < mismatched.size(); ++i)
            std::cout << (i ? ", " : "") << json_quote(mismatched[i]);
        std::cout << "]";
    }
};

// --- gen -------------------------------------------------------------------------

int run_gen(const std::vector<std::string>& args)
{
    require(args.size() >= 2, "gen needs DIR NAME:EVENTS:SEED...");
    const std::string& dir = args[0];
    for (std::size_t i = 1; i < args.size(); ++i) {
        const std::vector<std::string> parts = split(args[i], ":");
        require(parts.size() == 3, "design spec must be NAME:EVENTS:SEED");
        random_sg_options o;
        o.events = static_cast<std::uint32_t>(std::stoul(parts[1]));
        o.extra_arcs = o.events; // m = 2n
        o.seed = std::stoull(parts[2]);
        o.border_limit = 4;
        const std::string path = dir + "/" + parts[0] + ".tsg";
        {
            std::ofstream out(path);
            out << write_sg(random_marked_graph(o), parts[0]);
            require(out.good(), "cannot write " + path);
        }
        const signal_graph sg = load_sg(path);
        std::cout << "{\"name\": " << json_quote(parts[0]) << ", \"events\": "
                  << sg.event_count() << ", \"arcs\": " << sg.arc_count() << "}\n";
    }
    return 0;
}

// --- check -----------------------------------------------------------------------

int run_check(const std::string& dir, const std::string& log)
{
    const std::vector<entry> entries = read_log(log);
    verdict result;

    // Reads are independent once their version's graph exists: collect them
    // (one reference per distinct body and version), then fan out.
    struct task {
        std::shared_ptr<const signal_graph> graph;
        std::vector<const entry*> entries;
    };
    std::vector<task> tasks;
    for (const auto& [name, d] : group(entries)) {
        walk_chain(
            dir, d,
            [&](const std::vector<const entry*>& reads,
                const std::shared_ptr<const signal_graph>& graph) {
                std::map<std::string, std::size_t> by_body;
                for (const entry* e : reads) {
                    const auto [it, fresh] = by_body.emplace(body_key(e->request), tasks.size());
                    if (fresh) tasks.push_back({graph, {}});
                    tasks[it->second].entries.push_back(e);
                }
            },
            [&](const entry& e, const signal_graph& graph) {
                incremental_engine engine(graph);
                const std::string payload = execute_edit_payload(e.request, engine);
                result.record(e, &payload);
                return std::make_shared<const signal_graph>(engine.graph());
            });
    }

    // Four threads: the benchmark's core budget, used after the daemon exits.
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < 4; ++t) {
        pool.emplace_back([&] {
            // execute_request's pipeline, with the compile kept while
            // consecutive tasks share a version.
            std::shared_ptr<const signal_graph> graph;
            std::unique_ptr<compiled_graph> compiled;
            std::unique_ptr<scenario_engine> engine;
            for (std::size_t i; (i = next++) < tasks.size();) {
                const task& job = tasks[i];
                if (job.graph != graph) {
                    engine.reset();
                    graph = job.graph;
                    compiled = std::make_unique<compiled_graph>(*graph);
                    engine = std::make_unique<scenario_engine>(*compiled);
                }
                std::string payload;
                bool ok = true;
                try {
                    payload = execute_analysis_payload(job.entries.front()->request, *graph,
                                                       *compiled, *engine);
                } catch (const std::exception&) {
                    ok = false;
                }
                for (const entry* e : job.entries) result.record(*e, ok ? &payload : nullptr);
            }
        });
    }
    for (std::thread& t : pool) t.join();

    result.print_head();
    std::cout << "}\n";
    return 0;
}

// --- trace -----------------------------------------------------------------------

/// Spans of one traced run, by layer name; each list holds one duration
/// (ms) per call, or one count per call for the optimize counters whose
/// median is reported.  Per-kind lists feed the attribution ratio: the
/// spans of the requests the layers served (payload-cache hits excluded),
/// and the daemon's elapsed_ms for those same requests.
struct tracer {
    std::map<std::string, std::vector<double>> spans;
    std::map<std::string, std::map<std::string, std::vector<double>>> by_kind;
    std::map<std::string, std::vector<double>> served_ms;
    std::map<std::string, double> counts;

    /// Times `f()` as one span of `layer` for a request of kind `kind` (empty
    /// kind: not attributed to a request).
    template <typename F> auto time(const std::string& layer, const std::string& kind, F&& f)
    {
        const clock_type::time_point t0 = clock_type::now();
        if constexpr (std::is_void_v<decltype(f())>) {
            f();
            note(layer, kind, ms_since(t0));
        } else {
            auto value = f();
            note(layer, kind, ms_since(t0));
            return value;
        }
    }

    void note(const std::string& layer, const std::string& kind, double ms)
    {
        spans[layer].push_back(ms);
        if (!kind.empty()) by_kind[kind][layer].push_back(ms);
    }
};

/// One compiled design version, as the service holds it.
struct snapshot {
    std::shared_ptr<const signal_graph> graph;
    std::unique_ptr<const compiled_graph> compiled;
    std::unique_ptr<scenario_engine> engine;
    bool nominal_ready = false;
    rational nominal;
    std::map<std::pair<std::string, std::int64_t>, monte_carlo_table> mc_tables;
    std::map<std::string, std::string> payload_cache;
};

std::string size_tag(const signal_graph& sg)
{
    return "n" + std::to_string(sg.event_count());
}

std::unique_ptr<snapshot> compile_snapshot(tracer& tr, const std::string& kind,
                                           std::shared_ptr<const signal_graph> graph)
{
    auto snap = std::make_unique<snapshot>();
    snap->graph = std::move(graph);
    tr.time("compile.ms." + size_tag(*snap->graph), kind, [&] {
        snap->compiled = std::make_unique<compiled_graph>(*snap->graph);
        snap->engine = std::make_unique<scenario_engine>(*snap->compiled);
    });
    return snap;
}

/// Replays one read request against `snap`, span by span, and returns the
/// reassembled payload.
std::string trace_read(tracer& tr, snapshot& snap, const entry& e)
{
    const analysis_request& r = e.request;
    const request_options& o = r.options;
    const std::string kind = kind_label(r);
    const signal_graph& sg = *snap.graph;

    // Batch kinds go through the payload cache first, as the coalescer
    // serves a solo request.
    const std::string key = is_batch(r) ? body_key(r) : std::string();
    if (!key.empty()) {
        if (const auto hit = snap.payload_cache.find(key); hit != snap.payload_cache.end()) {
            tr.counts["service.cache_hits"] += 1;
            return hit->second;
        }
    }
    tr.served_ms[kind].push_back(e.elapsed_ms);

    if (r.kind == request_kind::analyze) {
        // The analyze renderer is private to the API; its span includes the
        // render, which is small next to the solve.
        return tr.time("cycle_time.analyze", kind, [&] {
            return execute_analysis_payload(r, sg, *snap.compiled, *snap.engine);
        });
    }
    if (r.kind == request_kind::optimize) {
        const optimize_options opt = o.to_optimize_options();
        const optimize_result result =
            tr.time("optimize.bnb", kind, [&] { return run_optimize(sg, *snap.engine, opt); });
        tr.spans["optimize.evaluations"].push_back(static_cast<double>(result.evaluations));
        return tr.time("api.render", kind, [&] {
            return optimize_json("optimize", solver_name(o.solver), sg, opt, result);
        });
    }
    if (r.kind == request_kind::report_topk) {
        const topk_options topk = o.to_topk_options();
        const topk_result result = tr.time("optimize.topk", kind, [&] {
            return report_topk(sg, *snap.compiled, *snap.engine, topk);
        });
        tr.spans["optimize.topk_solves"].push_back(static_cast<double>(result.solves));
        return tr.time("api.render", kind, [&] {
            return topk_json("report_topk", solver_name(o.solver), sg, topk, result);
        });
    }
    if (r.kind == request_kind::criticality || o.adaptive) {
        monte_carlo_options mc = o.to_monte_carlo_options();
        const stats_options stats = o.to_stats_options(r.kind);
        if (!o.adaptive) mc.samples = o.samples;
        const clock_type::time_point t0 = clock_type::now();
        const stats_run_result run = o.adaptive
                                         ? monte_carlo_adaptive(*snap.engine, sg, mc, stats)
                                         : monte_carlo_statistics(*snap.engine, sg, mc, stats);
        tr.note("stats.run", kind, ms_since(t0));
        tr.counts["stats.samples"] += static_cast<double>(run.stats.count());
        if (o.adaptive) tr.counts["stats.adaptive_samples"] += static_cast<double>(run.stats.count());
        tr.counts["scenario.lane_evictions"] += static_cast<double>(run.lane_evictions);
        tr.counts["scenario.fallbacks"] += static_cast<double>(run.stats.fallback_count());
        return tr.time("api.render", kind, [&] {
            return statistics_json(request_kind_name(r.kind), solver_name(o.solver), sg, run,
                                   stats);
        });
    }

    // Batch kinds on a cache miss: scenario generation (shared Monte Carlo
    // grid), the nominal once per snapshot, kernel.
    const std::vector<scenario> scenarios = tr.time("scenario.generate", kind, [&] {
        if (r.kind != request_kind::montecarlo) return request_scenarios(r, sg);
        const monte_carlo_options mo = o.to_monte_carlo_options();
        const auto grid = std::make_pair(mo.spread.str(), mo.resolution);
        auto it = snap.mc_tables.find(grid);
        if (it == snap.mc_tables.end())
            it = snap.mc_tables.emplace(grid, build_monte_carlo_table(sg, mo)).first;
        return monte_carlo_scenarios(sg, mo, it->second);
    });
    tr.counts["scenario.generated"] += static_cast<double>(scenarios.size());
    if (!snap.nominal_ready) {
        // Once per snapshot, so not attributed to the request that pays it.
        snap.nominal = tr.time("scenario.nominal", "", [&] {
            return snap.engine
                ->evaluate(snap.compiled->delay(), /*with_slack=*/false, o.max_threads, o.solver)
                .cycle_time;
        });
        snap.nominal_ready = true;
    }
    const scenario_batch_result batch = tr.time("scenario.kernel." + kind, kind, [&] {
        return snap.engine->run(scenarios, o.to_batch_options());
    });
    tr.counts["scenario.kernel_scenarios." + kind] += static_cast<double>(scenarios.size());
    tr.counts["scenario.lane_evictions"] += static_cast<double>(batch.lane_evictions);
    tr.counts["scenario.sparse_scenarios"] += static_cast<double>(batch.sparse_scenarios);
    tr.counts["scenario.fallbacks"] += static_cast<double>(batch.fallback_count);
    std::string payload = tr.time("api.render", kind, [&] {
        return batch_payload_json(r, sg, snap.nominal, scenarios, batch);
    });
    snap.payload_cache.emplace(key, payload);
    return payload;
}

/// Replays one edit request as the service's edit path runs it: a fresh
/// incremental engine on the latest version, the script (apply + warm
/// analysis per batch), the document, then the commit compile.
std::shared_ptr<const signal_graph> trace_edit(tracer& tr, const entry& e,
                                               const signal_graph& latest,
                                               std::string& payload)
{
    const std::string kind = "edit";
    tr.served_ms[kind].push_back(e.elapsed_ms);
    const std::unique_ptr<incremental_engine> owned = tr.time(
        "incremental.construct", kind, [&] { return std::make_unique<incremental_engine>(latest); });
    incremental_engine& engine = *owned;
    const edit_script script = parse_edit_script(e.request.edits, engine.graph());
    const bool nominal_cyclic = !engine.graph().repetitive_events().empty();
    require(nominal_cyclic, "traced edits need a cyclic design");
    const rational nominal =
        tr.time("incremental.analyze", kind, [&] { return engine.analyze().cycle_time; });
    std::vector<edit_batch_status> statuses(script.batches.size());
    for (std::size_t i = 0; i < script.batches.size(); ++i) {
        edit_batch_status& st = statuses[i];
        try {
            tr.time("incremental.apply", kind, [&] { engine.apply(script.batches[i]); });
        } catch (const error& ex) {
            st.message = ex.what();
            continue;
        }
        st.applied = true;
        st.cyclic = !engine.graph().repetitive_events().empty();
        require(st.cyclic, "traced edits must keep the design cyclic");
        st.cycle_time =
            tr.time("incremental.analyze_warm", kind, [&] { return engine.analyze_warm().cycle_time; });
    }
    tr.counts["incremental.warm_states_kept"] +=
        static_cast<double>(engine.counters().warm_states_kept);
    payload = tr.time("api.render", kind, [&] {
        return edit_run_json(engine, script, nominal, nominal_cyclic, statuses);
    });
    return std::make_shared<const signal_graph>(engine.graph());
}

int run_trace(const std::string& dir, const std::string& log)
{
    const std::vector<entry> entries = read_log(log);
    tracer tr;
    verdict result;

    for (const auto& [name, d] : group(entries)) {
        // The daemon compiled version 1 at registration; compile it three
        // times here so the set-up compile has a median of its own.
        auto graph = std::make_shared<const signal_graph>(load_sg(dir + "/" + name + ".tsg"));
        for (int i = 0; i < 2; ++i) (void)compile_snapshot(tr, "", graph);
        std::unique_ptr<snapshot> snap;
        walk_chain(
            dir, d,
            [&](const std::vector<const entry*>& reads,
                const std::shared_ptr<const signal_graph>& g) {
                if (!snap || snap->graph != g) snap = compile_snapshot(tr, "", g);
                for (const entry* e : reads) {
                    const std::string kind = kind_label(e->request);
                    const analysis_request request = tr.time(
                        "api.parse", "", [&] { return parse_analysis_request(e->request_text); });
                    std::string payload = trace_read(tr, *snap, *e);
                    analysis_response response;
                    response.id = request.id;
                    response.ok = true;
                    response.payload = payload;
                    response.design_version = e->version;
                    (void)tr.time("api.encode." + kind, "",
                                  [&] { return analysis_response_json(response); });
                    result.record(*e, &payload);
                }
            },
            [&](const entry& e, const signal_graph& latest) {
                (void)tr.time("api.parse", "",
                              [&] { return parse_analysis_request(e.request_text); });
                std::string payload;
                auto next = trace_edit(tr, e, latest, payload);
                // The commit compile: the service compiles the edited graph
                // again as the new immutable version.
                snap = compile_snapshot(tr, "edit", next);
                analysis_response response;
                response.id = e.id;
                response.ok = true;
                response.payload = payload;
                response.design_version = e.version;
                (void)tr.time("api.encode.edit", "",
                              [&] { return analysis_response_json(response); });
                result.record(e, &payload);
                return next;
            });
    }

    // Per-layer metrics.  Layers a workload never calls report 0.
    std::map<std::string, double> m;
    const auto med = [&](const std::string& span) {
        const auto it = tr.spans.find(span);
        return it == tr.spans.end() ? 0.0 : median(it->second);
    };
    const auto total = [&](const std::string& span) {
        const auto it = tr.spans.find(span);
        return it == tr.spans.end() ? 0.0 : sum(it->second);
    };
    const auto count = [&](const std::string& name) {
        const auto it = tr.counts.find(name);
        return it == tr.counts.end() ? 0.0 : it->second;
    };
    static const char* const kinds[] = {"analyze",     "edit",       "criticality",
                                        "report_topk", "optimize",   "montecarlo",
                                        "montecarlo_adaptive", "sweep"};
    m["api.parse_us"] = 1000.0 * med("api.parse");
    for (const char* k : kinds) {
        const std::string kind = k;
        const auto it = tr.by_kind.find(kind);
        m["api.render_ms." + kind] =
            it == tr.by_kind.end() || !it->second.count("api.render")
                ? 0.0
                : median(it->second.at("api.render"));
        m["api.encode_ms." + kind] = med("api.encode." + kind);
        double in_service = 0.0;
        if (it != tr.by_kind.end())
            for (const auto& [layer, samples] : it->second) in_service += median(samples);
        const auto served = tr.served_ms.find(kind);
        const double daemon = served == tr.served_ms.end() ? 0.0 : median(served->second);
        m["trace.attribution." + kind] = daemon > 0 ? in_service / daemon : 0.0;
    }
    m["compile.ms.n256"] = med("compile.ms.n256");
    m["compile.ms.n1024"] = med("compile.ms.n1024");
    m["incremental.apply_us"] = 1000.0 * med("incremental.apply");
    m["incremental.analyze_warm_us"] = 1000.0 * med("incremental.analyze_warm");
    m["incremental.warm_states_kept"] = count("incremental.warm_states_kept");
    m["cycle_time.analyze_us"] = 1000.0 * med("cycle_time.analyze");
    const double generated = count("scenario.generated");
    m["scenario.generate_us_per_scenario"] =
        generated > 0 ? 1000.0 * total("scenario.generate") / generated : 0.0;
    for (const std::string kind : {"montecarlo", "sweep"}) {
        const double n = count("scenario.kernel_scenarios." + kind);
        m["scenario.kernel_us_per_scenario." + kind] =
            n > 0 ? 1000.0 * total("scenario.kernel." + kind) / n : 0.0;
    }
    m["scenario.lane_evictions"] = count("scenario.lane_evictions");
    m["scenario.sparse_scenarios"] = count("scenario.sparse_scenarios");
    m["scenario.fallbacks"] = count("scenario.fallbacks");
    const double stats_ms = total("stats.run");
    m["stats.samples_per_s"] = stats_ms > 0 ? count("stats.samples") / (stats_ms / 1000.0) : 0.0;
    m["stats.adaptive_samples"] = count("stats.adaptive_samples");
    m["optimize.topk_ms"] = med("optimize.topk");
    m["optimize.topk_solves"] = med("optimize.topk_solves");
    m["optimize.bnb_ms"] = med("optimize.bnb");
    m["optimize.evaluations"] = med("optimize.evaluations");

    result.print_head();
    std::cout << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, value] : m) {
        char text[32];
        std::snprintf(text, sizeof text, "%.9g", value);
        std::cout << (first ? "" : ", ") << json_quote(name) << ": " << text;
        first = false;
    }
    std::cout << "}}\n";
    return 0;
}

} // namespace

int main(int argc, char** argv)
{
    try {
        const std::vector<std::string> args(argv + 1, argv + argc);
        if (!args.empty() && args[0] == "gen")
            return run_gen({args.begin() + 1, args.end()});
        if (args.size() == 3 && args[0] == "check") return run_check(args[1], args[2]);
        if (args.size() == 3 && args[0] == "trace") return run_trace(args[1], args[2]);
        std::cerr << "usage: perfbench_probe gen DIR NAME:EVENTS:SEED... | check DIR LOG | "
                     "trace DIR LOG\n";
        return 2;
    } catch (const std::exception& e) {
        std::cerr << "perfbench_probe: " << e.what() << "\n";
        return 1;
    }
}
