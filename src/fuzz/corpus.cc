#include "src/fuzz/corpus.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/common/json.h"

namespace nearpm {
namespace fuzz {
namespace {

constexpr Mechanism kAllMechanisms[] = {
    Mechanism::kLogging, Mechanism::kRedoLogging, Mechanism::kCheckpointing,
    Mechanism::kShadowPaging};
constexpr ExecMode kAllModes[] = {
    ExecMode::kCpuBaseline, ExecMode::kNdpSingleDevice,
    ExecMode::kNdpMultiSwSync, ExecMode::kNdpMultiDelayed};

}  // namespace

StatusOr<Mechanism> MechanismFromName(const std::string& name) {
  for (Mechanism m : kAllMechanisms) {
    if (name == MechanismName(m)) {
      return m;
    }
  }
  return InvalidArgument("unknown mechanism \"" + name + "\"");
}

StatusOr<ExecMode> ExecModeFromName(const std::string& name) {
  for (ExecMode m : kAllModes) {
    if (name == ExecModeName(m)) {
      return m;
    }
  }
  return InvalidArgument("unknown execution mode \"" + name + "\"");
}

std::string ReproToJson(const CrashRepro& repro) {
  using json::Value;
  Value obj;
  obj.Add("version", Value::Uint(repro.version))
      .Add("mechanism", Value::String(MechanismName(repro.mechanism)))
      .Add("mode", Value::String(ExecModeName(repro.mode)))
      .Add("enforce_ppo", Value::Bool(repro.enforce_ppo))
      .Add("break_recovery", Value::Bool(repro.break_recovery))
      .Add("seed", Value::Uint(repro.seed))
      .Add("total_ops", Value::Uint(repro.total_ops))
      .Add("crash_step", Value::Uint(repro.crash_step))
      .Add("mid_op", Value::Bool(repro.mid_op))
      .Add("crash_time", Value::Uint(repro.crash_time))
      .Add("line_survival", Value::String(repro.line_survival))
      .Add("expect", Value::String(repro.expect));
  if (!repro.note.empty()) {
    obj.Add("note", Value::String(repro.note));
  }
  // "kind" is omitted for bank repros so pre-serve corpus files stay
  // byte-identical round-trip.
  if (repro.kind == "serve") {
    obj.Add("kind", Value::String(repro.kind))
        .Add("serve_shards", Value::Uint(repro.serve_shards))
        .Add("serve_warmup_ops", Value::Uint(repro.serve_warmup_ops))
        .Add("serve_txn_pairs", Value::Uint(repro.serve_txn_pairs))
        .Add("serve_phase", Value::String(repro.serve_phase))
        .Add("serve_apply_ordinal", Value::Uint(repro.serve_apply_ordinal))
        .Add("serve_survive", Value::Bool(repro.serve_survive))
        .Add("serve_break_txn_redo", Value::Bool(repro.serve_break_txn_redo));
  } else if (repro.kind == "repl") {
    obj.Add("kind", Value::String(repro.kind))
        .Add("serve_warmup_ops", Value::Uint(repro.serve_warmup_ops))
        .Add("serve_txn_pairs", Value::Uint(repro.serve_txn_pairs))
        .Add("repl_groups", Value::Uint(repro.repl_groups))
        .Add("repl_replicas", Value::Uint(repro.repl_replicas))
        .Add("repl_protocol", Value::String(repro.repl_protocol))
        .Add("repl_phase", Value::String(repro.repl_phase))
        .Add("repl_ordinal", Value::Uint(repro.repl_ordinal))
        .Add("repl_crash_mask", Value::Uint(repro.repl_crash_mask))
        .Add("repl_survive", Value::Bool(repro.repl_survive))
        .Add("repl_break_intent_redo",
             Value::Bool(repro.repl_break_intent_redo))
        .Add("repl_skip_redo_persist",
             Value::Bool(repro.repl_skip_redo_persist));
  }
  // Repro files list their keys sorted, so they diff cleanly.
  std::sort(obj.members.begin(), obj.members.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return json::Write(obj);
}

StatusOr<CrashRepro> ReproFromJson(const std::string& text) {
  StatusOr<json::Value> doc = json::Parse(text);
  if (!doc.ok()) {
    return doc.status();
  }
  json::Reader r(*doc, "repro: ");
  CrashRepro repro;

  NEARPM_RETURN_IF_ERROR(r.Require("version", &repro.version));
  if (repro.version != 1) {
    return InvalidArgument("unsupported repro version " +
                           std::to_string(repro.version));
  }
  std::string name;
  NEARPM_RETURN_IF_ERROR(r.Require("mechanism", &name));
  NEARPM_ASSIGN_OR_RETURN(mechanism, MechanismFromName(name));
  repro.mechanism = mechanism;
  NEARPM_RETURN_IF_ERROR(r.Require("mode", &name));
  NEARPM_ASSIGN_OR_RETURN(mode, ExecModeFromName(name));
  repro.mode = mode;

  NEARPM_RETURN_IF_ERROR(r.Require("enforce_ppo", &repro.enforce_ppo));
  NEARPM_RETURN_IF_ERROR(r.Require("break_recovery", &repro.break_recovery));
  NEARPM_RETURN_IF_ERROR(r.Require("mid_op", &repro.mid_op));
  NEARPM_RETURN_IF_ERROR(r.Require("seed", &repro.seed));
  NEARPM_RETURN_IF_ERROR(r.Require("total_ops", &repro.total_ops));
  NEARPM_RETURN_IF_ERROR(r.Require("crash_step", &repro.crash_step));
  NEARPM_RETURN_IF_ERROR(r.Require("crash_time", &repro.crash_time));

  NEARPM_RETURN_IF_ERROR(r.Require("line_survival", &repro.line_survival));
  for (char c : repro.line_survival) {
    if (c != '0' && c != '1') {
      return InvalidArgument("line_survival must be a string of 0s and 1s");
    }
  }
  NEARPM_RETURN_IF_ERROR(r.Require("expect", &repro.expect));
  if (repro.expect != "recoverable" && repro.expect != "violation") {
    return InvalidArgument("expect must be \"recoverable\" or \"violation\"");
  }
  NEARPM_RETURN_IF_ERROR(r.Get("note", &repro.note));
  NEARPM_RETURN_IF_ERROR(r.Get("kind", &repro.kind));

  if (repro.kind == "serve") {
    NEARPM_RETURN_IF_ERROR(r.Require("serve_shards", &repro.serve_shards));
    NEARPM_RETURN_IF_ERROR(
        r.Require("serve_warmup_ops", &repro.serve_warmup_ops));
    NEARPM_RETURN_IF_ERROR(
        r.Require("serve_txn_pairs", &repro.serve_txn_pairs));
    NEARPM_RETURN_IF_ERROR(
        r.Require("serve_apply_ordinal", &repro.serve_apply_ordinal));
    NEARPM_RETURN_IF_ERROR(r.Require("serve_survive", &repro.serve_survive));
    NEARPM_RETURN_IF_ERROR(
        r.Require("serve_break_txn_redo", &repro.serve_break_txn_redo));
    NEARPM_RETURN_IF_ERROR(r.Require("serve_phase", &repro.serve_phase));
    if (repro.serve_shards == 0 || repro.serve_txn_pairs == 0) {
      return InvalidArgument("serve repro needs shards and txn pairs >= 1");
    }
  } else if (repro.kind == "repl") {
    NEARPM_RETURN_IF_ERROR(
        r.Require("serve_warmup_ops", &repro.serve_warmup_ops));
    NEARPM_RETURN_IF_ERROR(
        r.Require("serve_txn_pairs", &repro.serve_txn_pairs));
    NEARPM_RETURN_IF_ERROR(r.Require("repl_groups", &repro.repl_groups));
    NEARPM_RETURN_IF_ERROR(r.Require("repl_replicas", &repro.repl_replicas));
    NEARPM_RETURN_IF_ERROR(r.Require("repl_ordinal", &repro.repl_ordinal));
    NEARPM_RETURN_IF_ERROR(
        r.Require("repl_crash_mask", &repro.repl_crash_mask));
    NEARPM_RETURN_IF_ERROR(r.Require("repl_survive", &repro.repl_survive));
    NEARPM_RETURN_IF_ERROR(
        r.Require("repl_break_intent_redo", &repro.repl_break_intent_redo));
    NEARPM_RETURN_IF_ERROR(
        r.Require("repl_skip_redo_persist", &repro.repl_skip_redo_persist));
    NEARPM_RETURN_IF_ERROR(r.Require("repl_protocol", &repro.repl_protocol));
    if (repro.repl_protocol != "pb" && repro.repl_protocol != "redo") {
      return InvalidArgument("repl_protocol must be \"pb\" or \"redo\"");
    }
    NEARPM_RETURN_IF_ERROR(r.Require("repl_phase", &repro.repl_phase));
    if (repro.repl_groups == 0 || repro.repl_replicas == 0 ||
        repro.serve_txn_pairs == 0) {
      return InvalidArgument("repl repro needs groups, replicas and txn "
                             "pairs >= 1");
    }
    if (repro.repl_crash_mask == 0) {
      return InvalidArgument("repl_crash_mask must name at least one node");
    }
  } else if (repro.kind != "bank") {
    return InvalidArgument("unknown repro kind \"" + repro.kind + "\"");
  }
  NEARPM_RETURN_IF_ERROR(r.Done());

  if (repro.total_ops == 0 || repro.crash_step >= repro.total_ops) {
    return InvalidArgument("crash_step must lie inside total_ops");
  }
  return repro;
}

Status SaveRepro(const CrashRepro& repro, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Unavailable("cannot open " + path + " for writing");
  }
  out << ReproToJson(repro);
  out.close();
  if (!out) {
    return Unavailable("failed writing " + path);
  }
  return Status::Ok();
}

StatusOr<CrashRepro> LoadRepro(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return NotFound("cannot open " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  auto repro = ReproFromJson(text.str());
  if (!repro.ok()) {
    return InvalidArgument(path + ": " + repro.status().ToString());
  }
  return repro;
}

std::vector<std::string> ListCorpus(const std::string& dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::string ReproFileName(const CrashRepro& repro) {
  if (repro.kind == "repl") {
    std::string name = "repl_";
    name += repro.repl_protocol;
    name += "_";
    name += ExecModeName(repro.mode);
    if (!repro.enforce_ppo) {
      name += "_noppo";
    }
    if (repro.break_recovery) {
      name += "_skiprec";
    }
    if (repro.repl_break_intent_redo) {
      name += "_brokenredo";
    }
    if (repro.repl_skip_redo_persist) {
      name += "_nopersist";
    }
    name += "_s" + std::to_string(repro.seed);
    name += "_" + repro.repl_phase;
    name += std::to_string(repro.repl_ordinal);
    name += "_m" + std::to_string(repro.repl_crash_mask);
    name += repro.repl_survive ? "_surv" : "_drop";
    name += ".json";
    return name;
  }
  if (repro.kind == "serve") {
    std::string name = "serve_";
    name += ExecModeName(repro.mode);
    if (!repro.enforce_ppo) {
      name += "_noppo";
    }
    if (repro.break_recovery) {
      name += "_skiprec";
    }
    if (repro.serve_break_txn_redo) {
      name += "_brokentxn";
    }
    name += "_s" + std::to_string(repro.seed);
    name += "_" + repro.serve_phase;
    name += std::to_string(repro.serve_apply_ordinal);
    name += repro.serve_survive ? "_surv" : "_drop";
    name += ".json";
    return name;
  }
  std::string name = "fuzz_";
  name += MechanismName(repro.mechanism);
  name += "_";
  name += ExecModeName(repro.mode);
  if (!repro.enforce_ppo) {
    name += "_noppo";
  }
  if (repro.break_recovery) {
    name += "_brokenrec";
  }
  name += "_s" + std::to_string(repro.seed);
  name += "_op" + std::to_string(repro.crash_step);
  name += repro.mid_op ? "m" : "c";
  name += "_t" + std::to_string(repro.crash_time);
  name += ".json";
  return name;
}

}  // namespace fuzz
}  // namespace nearpm
