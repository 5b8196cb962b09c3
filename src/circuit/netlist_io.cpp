#include "circuit/netlist_io.h"

#include <cctype>
#include <fstream>
#include <sstream>
#include <vector>

namespace tsg {

namespace {

struct token {
    std::string text;
    std::size_t line;
};

std::vector<token> tokenize(const std::string& text)
{
    static const std::string specials = "{};(),=";
    std::vector<token> tokens;
    std::size_t line = 1;
    std::string current;
    auto flush = [&] {
        if (!current.empty()) {
            tokens.push_back({current, line});
            current.clear();
        }
    };
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (c == '#') {
            flush();
            while (i < text.size() && text[i] != '\n') ++i;
            ++line;
            continue;
        }
        if (c == '\n') {
            flush();
            ++line;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            flush();
            continue;
        }
        if (specials.find(c) != std::string::npos) {
            flush();
            tokens.push_back({std::string(1, c), line});
            continue;
        }
        current += c;
    }
    flush();
    return tokens;
}

class parser {
public:
    explicit parser(const std::string& text) : tokens_(tokenize(text)) {}

    parsed_circuit run()
    {
        expect("circuit");
        out_.name = next("circuit name");
        expect("{");
        std::vector<std::pair<std::string, bool>> initial_values;
        std::vector<std::string> stimuli;

        while (!peek_is("}")) {
            const token t = advance("item");
            if (t.text == "input") {
                const std::string name = next("input name");
                bool value = false;
                if (peek_is("=")) {
                    expect("=");
                    value = parse_bit();
                }
                expect(";");
                out_.nl.add_signal(name);
                initial_values.emplace_back(name, value);
            } else if (t.text == "gate") {
                parse_gate(initial_values);
            } else if (t.text == "stimulus") {
                stimuli.push_back(next("stimulus signal"));
                expect(";");
            } else {
                fail(t, "expected 'input', 'gate' or 'stimulus'");
            }
        }
        expect("}");
        require(pos_ == tokens_.size(), "parse_circuit: trailing tokens after '}'");

        out_.initial = circuit_state(out_.nl.signal_count());
        for (const auto& [name, value] : initial_values)
            out_.initial.set(out_.nl.signal_by_name(name), value);
        for (const std::string& s : stimuli) out_.nl.add_stimulus(s);
        out_.nl.validate();
        return std::move(out_);
    }

private:
    void parse_gate(std::vector<std::pair<std::string, bool>>& initial_values)
    {
        const std::string output = next("gate output");
        expect("=");
        const gate_kind kind = parse_gate_kind(next("gate kind"));
        expect("(");
        std::vector<std::tuple<std::string, rational, rational>> inputs;
        while (!peek_is(")")) {
            const std::string in = next("gate input");
            rational rise(0);
            rational fall(0);
            if (peek_is("delay")) {
                expect("delay");
                rise = fall = rational::parse(next("delay value"));
            } else if (peek_is("rise")) {
                expect("rise");
                rise = rational::parse(next("rise delay"));
                expect("fall");
                fall = rational::parse(next("fall delay"));
            }
            inputs.emplace_back(in, rise, fall);
            if (peek_is(",")) expect(",");
        }
        expect(")");
        bool init = false;
        if (peek_is("=")) {
            expect("=");
            init = parse_bit();
        }
        expect(";");
        out_.nl.add_gate_rf(kind, output, inputs);
        initial_values.emplace_back(output, init);
    }

    bool parse_bit()
    {
        const token t = advance("0 or 1");
        if (t.text == "0") return false;
        if (t.text == "1") return true;
        fail(t, "expected 0 or 1");
    }

    [[nodiscard]] bool peek_is(const std::string& text) const
    {
        return pos_ < tokens_.size() && tokens_[pos_].text == text;
    }

    token advance(const std::string& what)
    {
        if (pos_ >= tokens_.size())
            throw error("parse_circuit: unexpected end of input, expected " + what);
        return tokens_[pos_++];
    }

    std::string next(const std::string& what) { return advance(what).text; }

    void expect(const std::string& text)
    {
        const token t = advance("'" + text + "'");
        if (t.text != text) fail(t, "expected '" + text + "'");
    }

    [[noreturn]] static void fail(const token& t, const std::string& message)
    {
        throw error("parse_circuit: line " + std::to_string(t.line) + ": " + message +
                    " (got '" + t.text + "')");
    }

    std::vector<token> tokens_;
    std::size_t pos_ = 0;
    parsed_circuit out_;
};

} // namespace

parsed_circuit parse_circuit(const std::string& text)
{
    return parser(text).run();
}

parsed_circuit load_circuit(const std::string& path)
{
    std::ifstream in(path);
    require(in.good(), "load_circuit: cannot open '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parse_circuit(buffer.str());
}

std::string write_circuit(const parsed_circuit& circuit)
{
    std::ostringstream os;
    os << "circuit " << (circuit.name.empty() ? "g" : circuit.name) << " {\n";
    for (const signal_id s : circuit.nl.primary_inputs())
        os << "  input " << circuit.nl.signal_name(s) << " = "
           << (circuit.initial.value(s) ? 1 : 0) << ";\n";
    for (const gate& g : circuit.nl.gates()) {
        os << "  gate " << circuit.nl.signal_name(g.output) << " = "
           << gate_kind_name(g.kind) << "(";
        for (std::size_t i = 0; i < g.inputs.size(); ++i) {
            if (i > 0) os << ", ";
            os << circuit.nl.signal_name(g.inputs[i].signal);
            const pin& p = g.inputs[i];
            if (p.symmetric()) {
                if (!p.rise_delay.is_zero()) os << " delay " << p.rise_delay.str();
            } else {
                os << " rise " << p.rise_delay.str() << " fall " << p.fall_delay.str();
            }
        }
        os << ") = " << (circuit.initial.value(g.output) ? 1 : 0) << ";\n";
    }
    for (const signal_id s : circuit.nl.stimuli())
        os << "  stimulus " << circuit.nl.signal_name(s) << ";\n";
    os << "}\n";
    return os.str();
}

} // namespace tsg
